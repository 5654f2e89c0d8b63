package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"

	"cablevod/internal/adversity"
	"cablevod/internal/core"
	"cablevod/internal/trace"
)

// contentTypeProm is the Prometheus text exposition content type.
const contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// maxSubmitBody bounds one POST /submit body (32 MiB ≈ 800k records).
const maxSubmitBody = 32 << 20

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("GET /scenario/status", s.handleScenarioStatus)
	mux.HandleFunc("POST /snapshot/save", s.handleSnapshotSave)
	mux.HandleFunc("POST /fork", s.handleForkStart)
	mux.HandleFunc("GET /fork/status", s.handleForkStatus)
	if s.opts.EnablePprof {
		// Index serves the named sub-profiles (heap, goroutine, ...)
		// through the trailing-slash pattern.
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// handleMetrics renders the registry. The render goes through a buffer
// so a mid-render failure becomes a clean 500 instead of a torn 200.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentTypeProm)
	w.Write(buf.Bytes())
}

// handleSnapshot serves the last published engine snapshot as JSON —
// never touching the live engine.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.published.Load())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, _ := s.currentState()
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"mode":   s.mode,
		"state":  state,
	})
}

// submitRequest is the POST /submit wire format: a batch of session
// records, start-ordered, in the engine's native units (durations in
// nanoseconds). The handler decodes it with decodeSubmit, not through
// this type.
type submitRequest struct {
	Records []trace.Record `json:"records"`
}

// handleSubmit reads the whole body, up to maxSubmitBody, and decodes it
// with decodeSubmit. That accepts what encoding/json with unknown fields
// disallowed accepts into submitRequest, except for two bodies, both a
// 400: one with a second top-level "records" key, and one over
// maxSubmitBody even when its object closes inside the cap. Records are
// validated as they are decoded, so a flood of invalid records fails at
// its first element instead of growing the batch.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.mode != "ingest" {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("daemon is driving a %s workload; /submit is ingest-mode only", s.mode),
		})
		return
	}
	buf := submitBufs.Get().(*submitBuf)
	defer buf.release()
	if _, err := buf.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBody)); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read body: " + err.Error()})
		return
	}
	recs, err := decodeSubmit(buf.body.Bytes(), buf.recs)
	buf.recs = recs
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode: " + err.Error()})
		return
	}
	if len(recs) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty batch"})
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "engine closed"})
		return
	}
	if err := s.sys.SubmitBatch(recs); err != nil {
		// A rejected batch leaves engine state unchanged (SubmitBatch
		// validates before processing), so 400 is accurate.
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.submits.Inc()
	// SubmitBatch returned, so the engine is quiescent under s.mu;
	// flush the collector so scrapes reflect this batch exactly.
	s.col.Flush()
	s.publish(s.sys.Snapshot())

	m := s.published.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":      len(recs),
		"virtual_hours": m.Now.Hours(),
		"hit_ratio":     m.HitRatio(),
	})
}

// scenarioStatus is the GET /scenario/status payload.
type scenarioStatus struct {
	Mode         string  `json:"mode"`
	Scenario     string  `json:"scenario"`
	State        string  `json:"state"`
	VirtualHours float64 `json:"virtual_hours"`
	Submitted    int     `json:"submitted_records"`
	Checkpoints  uint64  `json:"checkpoints"`
	Acceleration float64 `json:"acceleration,omitempty"`
	Error        string  `json:"error,omitempty"`

	Assertions *assertionStatus `json:"assertions,omitempty"`
}

// assertionStatus summarizes the spec report once the run finished.
type assertionStatus struct {
	Total        int    `json:"total"`
	Passed       int    `json:"passed"`
	Pass         bool   `json:"pass"`
	FirstFailure string `json:"first_failure,omitempty"`
}

func (s *Server) handleScenarioStatus(w http.ResponseWriter, r *http.Request) {
	if s.driver == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "no scenario: daemon is in ingest mode",
		})
		return
	}
	state, runErr := s.currentState()
	st := scenarioStatus{
		Mode:         s.mode,
		Scenario:     s.name,
		State:        state,
		Checkpoints:  s.checkpoints.Load(),
		Acceleration: s.opts.Acceleration,
	}
	if m := s.published.Load(); m != nil {
		st.VirtualHours = m.Now.Hours()
		st.Submitted = m.Submitted
	}
	if runErr != nil {
		st.Error = runErr.Error()
	}
	if rep := s.Report(); rep != nil {
		as := &assertionStatus{Total: len(rep.Predicates), Pass: rep.Pass()}
		for _, p := range rep.Predicates {
			if p.Pass {
				as.Passed++
			}
		}
		if f := rep.FirstFailure(); f != nil {
			as.FirstFailure = fmt.Sprintf("%s: %s", f.Label, f.Detail)
		}
		st.Assertions = as
	}
	writeJSON(w, http.StatusOK, st)
}

// exportState snapshots the ingest-mode engine under the submit mutex.
// In scenario/spec modes the drive loop owns the engine, so a live
// export would race it; those runs snapshot through the driver instead
// (vodsim -snapshot-out).
func (s *Server) exportState() (*core.SystemState, error, int) {
	if s.mode != "ingest" {
		return nil, fmt.Errorf("daemon is driving a %s workload; state export is ingest-mode only (snapshot scenario runs with vodsim -snapshot-out)", s.mode), http.StatusConflict
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("engine closed"), http.StatusServiceUnavailable
	}
	st, err := s.sys.ExportState()
	if err != nil {
		return nil, err, http.StatusInternalServerError
	}
	return st, nil, http.StatusOK
}

// snapshotSaveRequest is the POST /snapshot/save wire format.
type snapshotSaveRequest struct {
	// Path is the server-side file the state is written to.
	Path string `json:"path"`
}

func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	var req snapshotSaveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode: " + err.Error()})
		return
	}
	if req.Path == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing path"})
		return
	}
	st, err, code := s.exportState()
	if err != nil {
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if err := core.SaveStateFile(req.Path, st); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":              req.Path,
		"at_hours":          st.At().Hours(),
		"submitted_records": st.Submitted,
		"strategy":          st.Strategy(),
	})
}

// forkRequest is the POST /fork wire format: the strategies to race
// from the engine's current warm state through the rest of its
// workload.
type forkRequest struct {
	Strategies []string `json:"strategies"`
}

func (s *Server) handleForkStart(w http.ResponseWriter, r *http.Request) {
	var req forkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode: " + err.Error()})
		return
	}
	if len(req.Strategies) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing strategies"})
		return
	}
	st, err, code := s.exportState()
	if err != nil {
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if st.Submitted >= len(st.Future) {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": "engine workload has no future records left to replay; a fork needs an incident ahead of the fork point",
		})
		return
	}
	tail := st.Future[st.Submitted:]

	s.forkMu.Lock()
	defer s.forkMu.Unlock()
	if s.forkState == "running" {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "a fork comparison is already running"})
		return
	}
	s.forkState, s.forkArms, s.forkReport, s.forkErr = "running", req.Strategies, nil, nil
	go s.runFork(st, req.Strategies, tail)

	writeJSON(w, http.StatusAccepted, map[string]any{
		"state":          "running",
		"strategies":     req.Strategies,
		"at_hours":       st.At().Hours(),
		"replay_records": len(tail),
	})
}

// runFork drives the comparison in the background over restored copies
// of the exported state; the live engine keeps serving submits.
func (s *Server) runFork(st *core.SystemState, strategies []string, tail []trace.Record) {
	rep, err := adversity.RunForks(st, strategies, tail, adversity.ForkOptions{})
	s.forkMu.Lock()
	defer s.forkMu.Unlock()
	s.forkReport, s.forkErr = rep, err
	if err != nil {
		s.forkState = "failed"
		s.opts.Logf("fork comparison failed: %v", err)
	} else {
		s.forkState = "done"
		s.opts.Logf("fork comparison done: best post-fork savings %s", rep.BestArm().Strategy)
	}
}

// forkArmStatus is one arm's row in the GET /fork/status report.
type forkArmStatus struct {
	Strategy    string  `json:"strategy"`
	HitRatio    float64 `json:"hit_ratio"`
	Savings     float64 `json:"savings"`
	CoaxP95Mbps float64 `json:"coax_p95_mbps"`
}

func (s *Server) handleForkStatus(w http.ResponseWriter, r *http.Request) {
	s.forkMu.Lock()
	defer s.forkMu.Unlock()
	if s.forkState == "" {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no fork comparison started (POST /fork)"})
		return
	}
	payload := map[string]any{
		"state":      s.forkState,
		"strategies": s.forkArms,
	}
	if s.forkErr != nil {
		payload["error"] = s.forkErr.Error()
	}
	if rep := s.forkReport; rep != nil {
		arms := make([]forkArmStatus, len(rep.Arms))
		for i, a := range rep.Arms {
			arms[i] = forkArmStatus{
				Strategy:    a.Strategy,
				HitRatio:    a.HitRatio,
				Savings:     a.Savings,
				CoaxP95Mbps: a.CoaxP95.Mbps(),
			}
		}
		payload["at_hours"] = rep.At.Hours()
		payload["arms"] = arms
		payload["best"] = rep.BestArm().Strategy
	}
	writeJSON(w, http.StatusOK, payload)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
