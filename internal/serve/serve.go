// Package serve hosts a live core.System behind an HTTP daemon: the
// vodsim live service mode. The daemon drives a scenario, a
// declarative spec, or an ingest endpoint, and exposes the engine's
// state through a production telemetry surface:
//
//	GET  /metrics          Prometheus text exposition (internal/telemetry)
//	GET  /snapshot         last published core.Metrics as JSON
//	GET  /healthz          liveness + mode/state
//	POST /submit           JSON record batches (ingest mode)
//	GET  /scenario/status  drive-loop progress and assertion verdicts
//	POST /snapshot/save    serialize the warm engine state to a server-side file (ingest mode)
//	POST /fork             race caching strategies from the warm state (ingest mode)
//	GET  /fork/status      fork comparison progress and the comparative report
//
// Concurrency model: the engine stays single-driver. In scenario and
// spec modes one goroutine owns the System (the scenario.Driver loop);
// it publishes an immutable *core.Metrics snapshot at every checkpoint
// boundary, and HTTP handlers only ever read that published pointer —
// they never call Snapshot on a live engine. In ingest mode a mutex
// serializes POST /submit batches, and each batch publishes a fresh
// snapshot on its way out. Telemetry (the request-latency collector)
// is hot-path-safe by construction and strictly observational:
// attaching it changes no engine result bit.
//
// Shutdown is graceful: cancelling the Run context (the CLI wires
// SIGINT/SIGTERM to it) stops the drive loop at the next hour
// boundary, flushes pending records, finalizes the engine so the
// Result and spec assertions are complete, writes the final snapshot,
// and drains in-flight HTTP requests.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cablevod/internal/adversity"
	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/scenario/spec"
	"cablevod/internal/synth"
	"cablevod/internal/telemetry"
	"cablevod/internal/universe"
)

// DefaultCheckpoint is the snapshot-publication cadence (virtual time)
// when the caller sets none: frequent enough that /metrics and
// /snapshot stay fresh under high acceleration.
const DefaultCheckpoint = 6 * time.Hour

// Options configures a daemon.
type Options struct {
	// Addr is the listen address (":8080"; ":0" picks a free port).
	Addr string

	// Engine is the resolved engine configuration. Ingest mode requires
	// Workload too; scenario and spec modes derive the population and
	// catalog themselves.
	Engine core.Config

	// Model prices request latency; the zero value selects
	// DefaultLatencyModel field by field.
	Model telemetry.LatencyModel

	// Scenario selects a registered live-workload scenario to drive
	// (mutually exclusive with SpecFile).
	Scenario string

	// ScenarioWorkload sizes the scenario's base workload. Required
	// with Scenario.
	ScenarioWorkload synth.Config

	// SpecFile is a declarative scenario spec (YAML/JSON) to drive;
	// its assertions are evaluated when the run completes.
	SpecFile string

	// Workload is the engine workload for ingest mode (no Scenario, no
	// SpecFile): the daemon accepts record batches on POST /submit.
	Workload core.Workload

	// Checkpoint is the virtual-time cadence of snapshot publication
	// (and scenario checkpoints). 0 = DefaultCheckpoint.
	Checkpoint time.Duration

	// Chunk is the drive loop's SubmitBatch window (0 = one day).
	Chunk time.Duration

	// Acceleration caps virtual time at this many virtual seconds per
	// wall-clock second (0 = unthrottled). 86400 plays one simulated
	// day per real second.
	Acceleration float64

	// OnCheckpoint observes checkpoints as the drive loop takes them
	// (after the daemon publishes the snapshot).
	OnCheckpoint func(scenario.Checkpoint)

	// FinalOut, when set, receives one JSON line with the final state
	// and snapshot during shutdown — the final snapshot flush.
	FinalOut io.Writer

	// EnablePprof mounts Go's net/http/pprof handlers under
	// /debug/pprof/ on the daemon mux, so a live daemon can be profiled
	// in place (go tool pprof http://ADDR/debug/pprof/profile).
	EnablePprof bool

	// Logf logs daemon lifecycle events (nil = silent).
	Logf func(format string, args ...any)
}

// Server is one live daemon instance. Build with New (which binds the
// listener, so Addr resolves immediately), then Run to serve.
type Server struct {
	opts  Options
	mode  string // "scenario", "spec", or "ingest"
	name  string // scenario or spec name
	start time.Time

	ln  net.Listener
	hs  *http.Server
	reg *telemetry.Registry
	col *telemetry.Collector

	// published is the handlers' only view of engine state: an
	// immutable snapshot the single engine driver refreshes.
	published atomic.Pointer[core.Metrics]

	// Drive-loop plumbing (scenario and spec modes).
	driver      *scenario.Driver
	prepared    *spec.Prepared
	stop        chan struct{}
	stopOnce    sync.Once
	driveDone   chan struct{}
	checkpoints telemetry.Counter

	// Ingest mode: mu serializes submits and the final Close.
	mu     sync.Mutex
	sys    *core.System
	closed bool

	// Fork comparison (ingest mode): one background run at a time,
	// launched by POST /fork over restored copies of the engine state —
	// never the live engine itself.
	forkMu     sync.Mutex
	forkState  string // "", "running", "done", "failed"
	forkArms   []string
	forkReport *adversity.ForkReport
	forkErr    error

	submits      telemetry.Counter
	httpRequests telemetry.Counter

	// Terminal state, written once by the goroutine that finishes the
	// engine and read by handlers.
	stateMu sync.Mutex
	state   string // "running", "done", "stopped", "failed"
	result  *core.Result
	report  *spec.Report
	runErr  error
}

// New validates the options, builds the engine (and driver, in
// scenario/spec modes), attaches the telemetry collector, publishes an
// initial snapshot, and binds the listener. The daemon is not serving
// until Run.
func New(opts Options) (*Server, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	if opts.Checkpoint == 0 {
		opts.Checkpoint = DefaultCheckpoint
	}
	if opts.Scenario != "" && opts.SpecFile != "" {
		return nil, fmt.Errorf("serve: -scenario and -scenario-file are mutually exclusive")
	}

	s := &Server{
		opts:      opts,
		start:     time.Now(),
		stop:      make(chan struct{}),
		driveDone: make(chan struct{}),
		state:     "running",
	}

	var sys *core.System
	switch {
	case opts.SpecFile != "":
		s.mode = "spec"
		f, err := spec.Load(opts.SpecFile)
		if err != nil {
			return nil, err
		}
		prep, err := spec.Prepare(f, spec.RunOptions{
			Engine:       opts.Engine,
			Checkpoint:   opts.Checkpoint,
			Chunk:        opts.Chunk,
			Acceleration: opts.Acceleration,
			OnCheckpoint: s.observeCheckpoint,
			Stop:         s.stop,
		})
		if err != nil {
			return nil, err
		}
		s.prepared, s.driver, s.name = prep, prep.Driver, f.Name
		sys = prep.Driver.System()

	case opts.Scenario != "":
		s.mode = "scenario"
		b, err := scenario.Lookup(opts.Scenario)
		if err != nil {
			return nil, err
		}
		drv, err := scenario.NewDriver(opts.Engine, b.Build(opts.ScenarioWorkload), scenario.Options{
			Chunk:        opts.Chunk,
			Checkpoint:   opts.Checkpoint,
			Acceleration: opts.Acceleration,
			OnCheckpoint: s.observeCheckpoint,
			Stop:         s.stop,
		})
		if err != nil {
			return nil, err
		}
		s.driver, s.name = drv, opts.Scenario
		sys = drv.System()

	default:
		s.mode = "ingest"
		var err error
		sys, err = core.NewSystem(opts.Engine, opts.Workload)
		if err != nil {
			return nil, err
		}
		s.sys = sys
	}

	col, err := telemetry.NewCollector(opts.Model, sys.Shards())
	if err != nil {
		return nil, err
	}
	sys.SetCollector(col)
	s.col = col

	reg := telemetry.NewRegistry()
	for _, src := range []struct {
		name string
		s    telemetry.Source
	}{
		{"engine", telemetry.SnapshotSource(s.published.Load)},
		{"latency", col},
		{"daemon", telemetry.SourceFunc(s.writeDaemonMetrics)},
	} {
		if err := reg.Register(src.name, src.s); err != nil {
			return nil, err
		}
	}
	s.reg = reg

	// The drive loop hasn't started and no submits have arrived, so
	// this Snapshot is race-free; /metrics and /snapshot are live from
	// the first request.
	s.publish(sys.Snapshot())

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", opts.Addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.routes()}
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Mode returns "scenario", "spec", or "ingest".
func (s *Server) Mode() string { return s.mode }

// Collector returns the daemon's latency collector.
func (s *Server) Collector() *telemetry.Collector { return s.col }

// Run serves HTTP and, in scenario/spec modes, drives the workload. It
// blocks until ctx is cancelled (then shuts down gracefully: stop the
// drive loop, finalize the engine, flush the final snapshot, drain
// HTTP) or the HTTP server fails.
func (s *Server) Run(ctx context.Context) error {
	s.opts.Logf("vodsim daemon listening on %s (%s mode)", s.Addr(), s.mode)
	httpErr := make(chan error, 1)
	go func() {
		if err := s.hs.Serve(s.ln); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
	}()
	if s.driver != nil {
		go s.drive()
	} else {
		close(s.driveDone)
	}

	select {
	case <-ctx.Done():
		s.opts.Logf("shutting down: finalizing engine")
	case err := <-httpErr:
		s.requestStop()
		return fmt.Errorf("serve: http server: %w", err)
	}

	s.requestStop()
	<-s.driveDone
	if s.mode == "ingest" {
		s.closeIngest()
	}
	s.flushFinal()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.hs.Shutdown(sctx)
}

// Result returns the engine's final result, available once the drive
// loop finished or shutdown closed the engine.
func (s *Server) Result() (*core.Result, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.result, s.runErr
}

// Report returns the spec assertion report (spec mode, after the run
// completed; nil otherwise).
func (s *Server) Report() *spec.Report {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.report
}

// requestStop asks the drive loop to finish at the next hour boundary.
func (s *Server) requestStop() { s.stopOnce.Do(func() { close(s.stop) }) }

// drive owns the engine in scenario/spec modes: it runs the scenario
// to completion (or to a stop request) and records the terminal state.
func (s *Server) drive() {
	defer close(s.driveDone)
	res, err := s.driver.Run()
	// The engine is quiescent now; publish every buffered observation
	// so post-run scrapes are exact.
	s.col.Flush()

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.result, s.runErr = res, err
	switch {
	case err != nil:
		s.state = "failed"
		s.opts.Logf("scenario %s failed: %v", s.name, err)
	case s.driver.Stopped():
		s.state = "stopped"
		s.opts.Logf("scenario %s stopped early at %v virtual", s.name, res.Days)
	default:
		s.state = "done"
		s.opts.Logf("scenario %s complete", s.name)
	}
	if s.prepared != nil && res != nil {
		s.report = s.prepared.Report(res)
	}
}

// closeIngest finalizes the ingest-mode engine exactly once.
func (s *Server) closeIngest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	res, err := s.sys.Close()
	// Close drained the remaining events; flush so the collector's
	// published totals match the final result exactly.
	s.col.Flush()

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.result, s.runErr = res, err
	if err != nil {
		s.state = "failed"
	} else {
		s.state = "done"
	}
}

// observeCheckpoint is the drive loop's publication hook: every
// checkpoint refreshes the handlers' snapshot. Checkpoints fire
// between submit windows, so the engine is quiescent and the
// collector flush here makes checkpoint-time scrapes exact.
func (s *Server) observeCheckpoint(cp scenario.Checkpoint) error {
	s.col.Flush()
	s.publish(cp.Metrics)
	s.checkpoints.Inc()
	if s.opts.OnCheckpoint != nil {
		s.opts.OnCheckpoint(cp)
	}
	return nil
}

// publish installs m as the immutable snapshot handlers read.
func (s *Server) publish(m core.Metrics) { s.published.Store(&m) }

// currentState reads the terminal-state snapshot.
func (s *Server) currentState() (state string, runErr error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.state, s.runErr
}

// flushFinal writes the shutdown snapshot line to FinalOut.
func (s *Server) flushFinal() {
	if s.opts.FinalOut == nil {
		return
	}
	state, runErr := s.currentState()
	payload := struct {
		Mode     string        `json:"mode"`
		Scenario string        `json:"scenario,omitempty"`
		State    string        `json:"state"`
		Error    string        `json:"error,omitempty"`
		Snapshot *core.Metrics `json:"snapshot"`
	}{Mode: s.mode, Scenario: s.name, State: state, Snapshot: s.published.Load()}
	if runErr != nil {
		payload.Error = runErr.Error()
	}
	out, err := json.Marshal(payload)
	if err != nil {
		s.opts.Logf("final snapshot: %v", err)
		return
	}
	fmt.Fprintln(s.opts.FinalOut, string(out))
}

// writeDaemonMetrics is the daemon's own metric source.
func (s *Server) writeDaemonMetrics(w *telemetry.Writer) {
	state, _ := s.currentState()
	w.Gauge("vodsim_daemon_info", "Daemon mode and driven workload; value is always 1.", 1,
		telemetry.Label{Name: "mode", Value: s.mode},
		telemetry.Label{Name: "name", Value: s.name},
	)
	w.Gauge("vodsim_daemon_uptime_seconds", "Wall-clock seconds since daemon start.", time.Since(s.start).Seconds())
	running := 0.0
	if state == "running" {
		running = 1
	}
	w.Gauge("vodsim_scenario_running", "1 while the drive loop (or ingest engine) is live.", running)
	w.Counter("vodsim_scenario_checkpoints_total", "Checkpoints taken by the drive loop.", float64(s.checkpoints.Load()))
	w.Counter("vodsim_daemon_submits_total", "POST /submit batches accepted (ingest mode).", float64(s.submits.Load()))
	w.Counter("vodsim_daemon_http_requests_total", "HTTP requests served.", float64(s.httpRequests.Load()))
	w.Counter("vodsim_daemon_scrapes_total", "Completed /metrics renders.", float64(s.reg.Scrapes()))

	// Process memory, for watching a mega-scale engine's footprint from
	// the outside. HeapAlloc here is the instantaneous live+uncollected
	// heap (no forced GC on the scrape path — scrapes must stay cheap);
	// the peak-RSS gauge is the kernel's high-water mark.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("vodsim_daemon_heap_alloc_bytes", "Heap bytes allocated and not yet collected.", float64(ms.HeapAlloc))
	w.Gauge("vodsim_daemon_heap_sys_bytes", "Heap bytes held from the OS.", float64(ms.HeapSys))
	w.Counter("vodsim_daemon_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	if peak := universe.PeakRSS(); peak > 0 {
		w.Gauge("vodsim_daemon_peak_rss_bytes", "Process peak resident set (VmHWM).", float64(peak))
	}
}
