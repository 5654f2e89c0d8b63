package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/telemetry"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func testEngine() core.Config {
	return core.Config{
		Topology: hfc.Config{
			NeighborhoodSize: 100,
			PerPeerStorage:   2 * units.GB,
		},
		Fill:       core.FillOnBroadcast,
		WarmupDays: 0,
	}
}

// startServer runs s until the test ends, failing the test if Run
// errors, and returns its base URL. The cleanup first closes the
// default client's idle connections: concurrent posts can leave one
// dialed but never used, which Shutdown waits on for five seconds, as
// long as Run gives it.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("Run did not return after context cancel")
		}
	})
	return "http://" + s.Addr()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// startIngest runs an ingest daemon provisioned for the test workload
// until the test ends, and returns its base URL and the workload.
func startIngest(t *testing.T) (string, *trace.Trace) {
	t.Helper()
	tr, err := synth.Generate(synth.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Addr:     ":0",
		Engine:   testEngine(),
		Workload: core.Workload{Users: tr.Users(), Lengths: core.TraceLengths(tr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return startServer(t, s), tr
}

// postSubmit posts body to base's /submit and returns the status code.
func postSubmit(t *testing.T, base string, body []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// snapshotWire mirrors the fields of core.Metrics' custom JSON shape
// the tests read back (Metrics has MarshalJSON only — it does not
// round-trip into the Go struct).
type snapshotWire struct {
	NowSeconds float64 `json:"now_seconds"`
	Submitted  int     `json:"submitted"`
	Counters   struct {
		SegmentRequests uint64 `json:"segment_requests"`
	} `json:"counters"`
}

// waitForState polls /scenario/status until the drive loop reaches
// want.
func waitForState(t *testing.T, base, want string) scenarioStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st scenarioStatus
		if code := getJSON(t, base+"/scenario/status", &st); code != http.StatusOK {
			t.Fatalf("/scenario/status = %d", code)
		}
		if st.State == want {
			return st
		}
		if st.State == "failed" {
			t.Fatalf("scenario failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("state %q never reached (last %q)", want, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeScenario is the end-to-end acceptance path: daemon drives a
// registered scenario unthrottled, every endpoint answers, /metrics is
// valid Prometheus text carrying the issue's named families, and the
// run completes with a Result.
func TestServeScenario(t *testing.T) {
	s, err := New(Options{
		Addr:             ":0",
		Engine:           testEngine(),
		Scenario:         "flash-crowd",
		ScenarioWorkload: synth.TestConfig(),
		Checkpoint:       6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != "scenario" {
		t.Fatalf("mode = %q", s.Mode())
	}
	base := startServer(t, s)

	var health map[string]string
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if health["status"] != "ok" || health["mode"] != "scenario" {
		t.Fatalf("/healthz = %v", health)
	}

	st := waitForState(t, base, "done")
	if st.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
	if st.VirtualHours < 48 { // 3-day scenario
		t.Errorf("virtual clock at %v hours, want the full run", st.VirtualHours)
	}

	code, metrics := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, family := range []string{
		"# TYPE vodsim_up gauge",
		"vodsim_up 1",
		"vodsim_hit_ratio ",
		"vodsim_server_bps ",
		"vodsim_coax_bps ",
		"vodsim_active_sessions ",
		`vodsim_request_latency_seconds{quantile="0.5"}`,
		`vodsim_request_latency_seconds{quantile="0.95"}`,
		`vodsim_request_latency_seconds{quantile="0.99"}`,
		"vodsim_neighborhood_hit_ratio{nb=\"0\"}",
		`vodsim_daemon_info{mode="scenario",name="flash-crowd"} 1`,
		"vodsim_scenario_checkpoints_total ",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	var snap snapshotWire
	if code := getJSON(t, base+"/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("/snapshot = %d", code)
	}
	if snap.Counters.SegmentRequests == 0 {
		t.Error("/snapshot has zero segment requests after a full run")
	}

	// /submit must be refused while a scenario owns the engine.
	resp, err := http.Post(base+"/submit", "application/json", strings.NewReader(`{"records":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("/submit in scenario mode = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}

// TestServeSpecFile drives the checked-in CI-scale spec and checks the
// assertion verdicts surface on /scenario/status.
func TestServeSpecFile(t *testing.T) {
	// The spec's engine block pins strategy, neighborhood, storage, and
	// warmup; everything else stays at engine defaults, matching how the
	// spec's own assertion baselines were established (an overlaid
	// FillOnBroadcast would shift the hit-ratio trajectory).
	var final bytes.Buffer
	s, err := New(Options{
		Addr:     ":0",
		Engine:   core.Config{},
		SpecFile: "../../testdata/scenarios/flash-crowd.yaml",
		FinalOut: &final,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)

	st := waitForState(t, base, "done")
	if st.Mode != "spec" || st.Scenario != "flash-crowd" {
		t.Fatalf("status = %+v", st)
	}
	if st.Assertions == nil {
		t.Fatal("no assertion verdicts in status after completion")
	}
	if !st.Assertions.Pass || st.Assertions.Passed != st.Assertions.Total {
		t.Errorf("spec assertions failed: %+v", st.Assertions)
	}
	if rep := s.Report(); rep == nil || !rep.Pass() {
		t.Error("Report() missing or failing after done state")
	}
}

// TestServeIngest drives the daemon through POST /submit and checks
// snapshots and metrics advance with each batch.
func TestServeIngest(t *testing.T) {
	opts := synth.TestConfig()
	tr, err := synth.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Addr:   ":0",
		Engine: testEngine(),
		Workload: core.Workload{
			Users:   tr.Users(),
			Lengths: core.TraceLengths(tr),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)

	if code := getJSON(t, base+"/scenario/status", nil); code != http.StatusNotFound {
		t.Errorf("/scenario/status in ingest mode = %d, want 404", code)
	}

	batch := tr.Records[:2000]
	body, err := json.Marshal(submitRequest{Records: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/submit = %d: %v", resp.StatusCode, ack)
	}
	if got := ack["accepted"].(float64); int(got) != len(batch) {
		t.Errorf("accepted %v records, sent %d", got, len(batch))
	}

	var snap snapshotWire
	getJSON(t, base+"/snapshot", &snap)
	if snap.Submitted != len(batch) {
		t.Errorf("snapshot shows %d submitted, want %d", snap.Submitted, len(batch))
	}

	_, metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("vodsim_submitted_records_total %d", len(batch))) {
		t.Error("/metrics does not reflect the submitted batch")
	}
	if !strings.Contains(metrics, "vodsim_daemon_submits_total 1") {
		t.Error("/metrics missing submit accounting")
	}

	// An out-of-order batch must be rejected without corrupting state.
	bad, _ := json.Marshal(submitRequest{Records: tr.Records[:10]})
	resp, err = http.Post(base+"/submit", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-order batch = %d, want 400", resp.StatusCode)
	}
}

// TestServeSubmitRejectsFarFutureRecord: a record ending past the
// engine's event-queue time limit is a 400 that leaves the engine as it
// was, and the daemon still shuts down cleanly (startServer's cleanup
// fails the test if Run errors).
func TestServeSubmitRejectsFarFutureRecord(t *testing.T) {
	base, tr := startIngest(t)
	post := func(recs []trace.Record) int {
		t.Helper()
		body, err := json.Marshal(submitRequest{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		return postSubmit(t, base, body)
	}
	batch := tr.Records[:500]
	if code := post(batch); code != http.StatusOK {
		t.Fatalf("valid batch = %d, want 200", code)
	}
	last := batch[len(batch)-1]
	far := trace.Record{User: last.User, Program: last.Program, Start: math.MaxInt64 - time.Hour, Duration: 30 * time.Minute}
	if code := post([]trace.Record{far}); code != http.StatusBadRequest {
		t.Errorf("far-future record = %d, want 400", code)
	}
	var snap snapshotWire
	getJSON(t, base+"/snapshot", &snap)
	if snap.Submitted != len(batch) {
		t.Errorf("snapshot shows %d submitted after the rejected record, want %d", snap.Submitted, len(batch))
	}
}

// TestServeSubmitRejectsOversizeBody: a body one byte over
// maxSubmitBody is a 400 that leaves the engine as it was, even when its
// object closes inside the cap, and the daemon goes on taking batches.
func TestServeSubmitRejectsOversizeBody(t *testing.T) {
	base, tr := startIngest(t)
	batch := tr.Records[:500]
	valid, err := json.Marshal(submitRequest{Records: batch})
	if err != nil {
		t.Fatal(err)
	}
	over := append(bytes.Clone(valid), bytes.Repeat([]byte{' '}, maxSubmitBody+1-len(valid))...)
	if code := postSubmit(t, base, over); code != http.StatusBadRequest {
		t.Errorf("body of %d bytes = %d, want 400", len(over), code)
	}
	var snap snapshotWire
	getJSON(t, base+"/snapshot", &snap)
	if snap.Submitted != 0 {
		t.Errorf("snapshot shows %d submitted after the oversize body, want 0", snap.Submitted)
	}
	if code := postSubmit(t, base, valid); code != http.StatusOK {
		t.Fatalf("valid batch after the oversize body = %d, want 200", code)
	}
	getJSON(t, base+"/snapshot", &snap)
	if snap.Submitted != len(batch) {
		t.Errorf("snapshot shows %d submitted, want %d", snap.Submitted, len(batch))
	}
}

// TestServeSubmitConcurrentBodies posts one batch from several clients
// at once: the bodies decode concurrently in pooled buffers, then the
// engine takes exactly one copy and rejects the others as out of order.
func TestServeSubmitConcurrentBodies(t *testing.T) {
	base, tr := startIngest(t)
	batch := tr.Records[:500]
	body, err := json.Marshal(submitRequest{Records: batch})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	codes := make([]int, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := range clients {
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	slices.Sort(codes)
	want := append([]int{http.StatusOK}, slices.Repeat([]int{http.StatusBadRequest}, clients-1)...)
	if !slices.Equal(codes, want) {
		t.Errorf("statuses %v, want one 200 and %d 400s", codes, clients-1)
	}
	var snap snapshotWire
	getJSON(t, base+"/snapshot", &snap)
	if snap.Submitted != len(batch) {
		t.Errorf("snapshot shows %d submitted, want %d", snap.Submitted, len(batch))
	}
}

// TestServeGracefulStop cancels the daemon mid-scenario: the drive
// loop must stop at an hour boundary, finalize the engine, flush the
// final snapshot, and report state "stopped".
func TestServeGracefulStop(t *testing.T) {
	workload := synth.TestConfig()
	workload.Days = 365 // never finishes within the test

	var final bytes.Buffer
	s, err := New(Options{
		Addr:             ":0",
		Engine:           testEngine(),
		Scenario:         "flash-crowd",
		ScenarioWorkload: workload,
		Checkpoint:       6 * time.Hour,
		FinalOut:         &final,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	base := "http://" + s.Addr()

	// Let it make some progress, then pull the plug.
	waitForProgress := time.Now().Add(30 * time.Second)
	for {
		var st scenarioStatus
		getJSON(t, base+"/scenario/status", &st)
		if st.Checkpoints >= 2 {
			break
		}
		if time.Now().After(waitForProgress) {
			t.Fatal("scenario made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after cancel: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("graceful shutdown hung")
	}

	res, runErr := s.Result()
	if runErr != nil {
		t.Fatalf("stopped run errored: %v", runErr)
	}
	if res == nil {
		t.Fatal("no Result after graceful stop")
	}
	state, _ := s.currentState()
	if state != "stopped" {
		t.Errorf("state = %q, want stopped", state)
	}

	var flush struct {
		Mode     string        `json:"mode"`
		State    string        `json:"state"`
		Snapshot *core.Metrics `json:"snapshot"`
	}
	if err := json.Unmarshal(final.Bytes(), &flush); err != nil {
		t.Fatalf("final snapshot flush is not JSON: %v\n%s", err, final.String())
	}
	if flush.State != "stopped" || flush.Snapshot == nil {
		t.Errorf("final flush = %+v", flush)
	}
}

// TestServeTelemetryMatchesOffline pins the daemon path against a
// direct offline drive of the same scenario: same records, same
// collector totals — the serving layer adds nothing and loses nothing.
func TestServeTelemetryMatchesOffline(t *testing.T) {
	s, err := New(Options{
		Addr:             ":0",
		Engine:           testEngine(),
		Scenario:         "flash-crowd",
		ScenarioWorkload: synth.TestConfig(),
		Checkpoint:       12 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)
	waitForState(t, base, "done")
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	if got := s.Collector().Segments(); got != uint64(res.Counters.SegmentRequests) {
		t.Errorf("collector saw %d segments, engine served %d", got, res.Counters.SegmentRequests)
	}
	sum := s.Collector().Latency(telemetry.All)
	if sum.Count != uint64(res.Counters.SegmentRequests) {
		t.Errorf("latency digest holds %d samples, want %d", sum.Count, res.Counters.SegmentRequests)
	}
	if sum.P50 <= 0 || sum.P99 < sum.P50 {
		t.Errorf("implausible latency summary: %+v", sum)
	}
}

// TestServeSnapshotFork exercises the adversity surface of the ingest
// daemon: half the trace goes in through /submit, /snapshot/save
// serializes the warm state to a server-side file, and POST /fork races
// two strategies through the remaining records, with the comparative
// report surfacing on /fork/status.
func TestServeSnapshotFork(t *testing.T) {
	tr, err := synth.Generate(synth.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		Addr:   ":0",
		Engine: testEngine(),
		Workload: core.Workload{
			Users:   tr.Users(),
			Lengths: core.TraceLengths(tr),
			Future:  tr.Records,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)

	if code := getJSON(t, base+"/fork/status", nil); code != http.StatusNotFound {
		t.Errorf("/fork/status before any fork = %d, want 404", code)
	}

	half := tr.Records[:len(tr.Records)/2]
	body, _ := json.Marshal(submitRequest{Records: half})
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/submit = %d", resp.StatusCode)
	}

	path := filepath.Join(t.TempDir(), "state.snap")
	saveBody, _ := json.Marshal(snapshotSaveRequest{Path: path})
	resp, err = http.Post(base+"/snapshot/save", "application/json", bytes.NewReader(saveBody))
	if err != nil {
		t.Fatal(err)
	}
	var saved map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot/save = %d: %v", resp.StatusCode, saved)
	}
	st, err := core.LoadStateFile(path)
	if err != nil {
		t.Fatalf("saved state does not load: %v", err)
	}
	if st.Submitted != len(half) {
		t.Errorf("saved state holds %d submitted records, want %d", st.Submitted, len(half))
	}

	forkBody, _ := json.Marshal(forkRequest{Strategies: []string{"lfu", "lru"}})
	resp, err = http.Post(base+"/fork", "application/json", bytes.NewReader(forkBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/fork = %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	var status struct {
		State string          `json:"state"`
		Error string          `json:"error"`
		Best  string          `json:"best"`
		Arms  []forkArmStatus `json:"arms"`
	}
	for {
		getJSON(t, base+"/fork/status", &status)
		if status.State == "done" || status.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fork never finished (state %q)", status.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != "done" {
		t.Fatalf("fork failed: %s", status.Error)
	}
	if len(status.Arms) != 2 {
		t.Fatalf("report has %d arms, want 2", len(status.Arms))
	}
	for i, want := range []string{"lfu", "lru"} {
		arm := status.Arms[i]
		if arm.Strategy != want {
			t.Errorf("arm %d strategy %q, want %q", i, arm.Strategy, want)
		}
		if arm.HitRatio <= 0 || arm.HitRatio > 1 {
			t.Errorf("arm %s hit ratio %v out of range", arm.Strategy, arm.HitRatio)
		}
	}
	if status.Best != "lfu" && status.Best != "lru" {
		t.Errorf("best arm %q not among the raced strategies", status.Best)
	}

	// The live engine kept its own run: it still accepts the tail and
	// closes cleanly, unaffected by the fork's restored copies.
	rest, _ := json.Marshal(submitRequest{Records: tr.Records[len(half):]})
	resp, err = http.Post(base+"/submit", "application/json", bytes.NewReader(rest))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/submit after fork = %d", resp.StatusCode)
	}
}

// TestServePprof: the opt-in debug endpoints exist only when enabled.
func TestServePprof(t *testing.T) {
	opts := synth.TestConfig()
	tr, err := synth.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	workload := core.Workload{Users: tr.Users(), Lengths: core.TraceLengths(tr)}

	s, err := New(Options{Addr: ":0", Engine: testEngine(), Workload: workload, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, s)
	code, body := getBody(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d with EnablePprof", code)
	}
	if !strings.Contains(body, "heap") || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index lists no profiles:\n%.200s", body)
	}
	if code, _ := getBody(t, base+"/debug/pprof/heap"); code != http.StatusOK {
		t.Errorf("/debug/pprof/heap = %d", code)
	}

	off, err := New(Options{Addr: ":0", Engine: testEngine(), Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	offBase := startServer(t, off)
	if code := getJSON(t, offBase+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ = %d without EnablePprof, want 404", code)
	}
}
