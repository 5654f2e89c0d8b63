package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cablevod/internal/serve"
	"cablevod/internal/trace"
)

const (
	// scrapeEvery is how often the second load goroutine reads /metrics
	// while the first submits.
	scrapeEvery = 250 * time.Millisecond
	// openRate is the open-loop schedule's records per second.
	openRate = 50_000
	// openWindows is how many stretches of the trace a daemon pass's
	// open-loop bodies are spread over.
	openWindows = 10
)

// body is one pre-encoded POST /submit payload.
type body struct {
	data    []byte
	records int
}

// encodeBodies encodes each batch as a /submit body.
func encodeBodies(batches [][]trace.Record) ([]body, error) {
	bodies := make([]body, len(batches))
	for i, batch := range batches {
		data, err := json.Marshal(struct {
			Records []trace.Record `json:"records"`
		}{batch})
		if err != nil {
			return nil, err
		}
		bodies[i] = body{data: data, records: len(batch)}
	}
	return bodies, nil
}

// loopbackClient returns a client with one keep-alive connection and no
// proxy: each load goroutine owns one.
func loopbackClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// do sends one request and drains the response so the connection is
// reused; any status other than 200 is an error.
func do(c *http.Client, method, url string, data []byte) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return nil
}

// daemon is an ingest-mode daemon running on loopback.
type daemon struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(p plant) (*daemon, error) {
	srv, err := serve.New(serve.Options{Addr: "127.0.0.1:0", Engine: p.cfg, Workload: p.w})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, url: "http://" + srv.Addr(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Run(ctx) }()
	return d, nil
}

// stop shuts the daemon down, which closes its engine, and waits for it.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// daemonOptions shapes one daemon pass.
type daemonOptions struct {
	// open is how many bodies go out on the open-loop schedule, spread
	// over the pass by stretches; the rest go back to back (closed loop).
	open int
	// savePath, when set, has the daemon save its engine state there
	// after the last body.
	savePath string
	// measureHeap reads the daemon's live heap, with the daemon idle after
	// the last body.
	measureHeap bool
}

// daemonStats is what one daemon pass observed.
type daemonStats struct {
	open          openLoopStats
	openPerKrec   []time.Duration // open-loop latencies scaled to 1,000 records
	closed        []time.Duration
	closedTime    time.Duration
	closedRecords int
	scrapes       []time.Duration
	failed        int
	heap          float64 // daemon live heap in bytes, with measureHeap
	out           outcome
}

// daemonPass runs one daemon lifetime: a fresh ingest daemon takes every
// body over one keep-alive connection, o.open of them at the open-loop
// rate at the head of each stretch, while a second goroutine reads
// /metrics every scrapeEvery; then the daemon shuts down and reports its
// final result.
func (r *run) daemonPass(p plant, bodies []body, o daemonOptions, tr *tracer, parent int64) (daemonStats, error) {
	var st daemonStats
	var base float64
	if o.measureHeap {
		base = liveHeap()
	}
	t := tr.begin("serve.new", parent)
	d, err := startDaemon(p)
	t.end()
	if err != nil {
		return st, err
	}
	client := loopbackClient()
	defer client.CloseIdleConnections()

	stopScrapes := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeFailed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := loopbackClient()
		defer c.CloseIdleConnections()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			t := tr.begin("telemetry.scrape", parent)
			if do(c, http.MethodGet, d.url+"/metrics", nil) != nil {
				scrapeFailed++
			}
			st.scrapes = append(st.scrapes, t.end())
			select {
			case <-stopScrapes:
				return
			case <-tick.C:
			}
		}
	}()

	send := func(i int) error {
		t := tr.begin("serve.submit", parent)
		err := do(client, http.MethodPost, d.url+"/submit", bodies[i].data)
		t.end()
		if err != nil {
			st.failed++
		}
		return err
	}
	interval := time.Duration(float64(r.sz.batch) / openRate * float64(time.Second))
	for _, s := range stretches(len(bodies), o.open, openWindows) {
		ol := openLoop(realClock{}, s.open, interval, func(i int) error { return send(s.start + i) })
		for i, d := range ol.latency {
			st.openPerKrec = append(st.openPerKrec, perKrec(d, bodies[s.start+i].records))
		}
		st.open.add(ol)
		start := time.Now()
		for i := s.start + s.open; i < s.end; i++ {
			t := time.Now()
			send(i)
			st.closed = append(st.closed, time.Since(t))
			st.closedRecords += bodies[i].records
		}
		st.closedTime += time.Since(start)
	}
	if o.savePath != "" {
		r.attempted++
		req, _ := json.Marshal(map[string]string{"path": o.savePath}) // a string map always encodes
		if err := do(client, http.MethodPost, d.url+"/snapshot/save", req); err != nil {
			st.failed++
		}
	}
	close(stopScrapes)
	wg.Wait()
	st.failed += scrapeFailed
	r.attempted += len(bodies) + len(st.scrapes)
	r.failed += st.failed
	if o.measureHeap {
		st.heap = liveHeap() - base
	}
	if err := d.stop(); err != nil {
		return st, err
	}
	res, err := d.srv.Result()
	if err != nil {
		return st, err
	}
	st.out = outcomeOf(res, "")
	return st, nil
}

// reportServe sets the serve and telemetry layers' metrics from daemon
// passes.
func (r *run) reportServe(passes []daemonStats) {
	var open, closed, scrapes []time.Duration
	var late time.Duration
	failed := 0
	for _, p := range passes {
		open = append(open, p.open.latency...)
		closed = append(closed, p.closed...)
		scrapes = append(scrapes, p.scrapes...)
		for _, l := range p.open.late {
			late = max(late, l)
		}
		failed += p.failed
	}
	r.set("serve.submit_ms_p95", "ms", quantile(ms(open), 0.95))
	r.set("serve.closed_ms_p50", "ms", quantile(ms(closed), 0.5))
	r.set("serve.gen_late_ms_max", "ms", float64(late)/float64(time.Millisecond))
	r.set("serve.failed", "count", float64(failed))
	r.set("telemetry.scrape_ms_p50", "ms", quantile(ms(scrapes), 0.5))
	r.set("telemetry.scrape_ms_p90", "ms", quantile(ms(scrapes), 0.9))
}

// serveProbe measures the serve and telemetry layers on a workload that
// does not go through the daemon: a daemon pass over the workload's first
// sz.probeBatches bodies on its own plant, half of them open loop.
func (r *run) serveProbe(p plant, recs []trace.Record) error {
	probe := r.tr.begin("bench.probe.serve", 0)
	defer probe.end()
	bodies, err := encodeBodies(chunk(recs[:min(len(recs), r.sz.probeBatches*r.sz.batch)], r.sz.batch))
	if err != nil {
		return err
	}
	st, err := r.daemonPass(p, bodies, daemonOptions{open: len(bodies) / 2}, r.tr, probe.id)
	if err != nil {
		return err
	}
	r.reportServe([]daemonStats{st})
	return nil
}
