package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A pass from 0 to 100 with two nested calls, one of them with a
		// child of its own, and two overlapping scrapes beside them.
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "scrape", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "scrape", Start: 50, End: 70},
		// A child reaching past its parent counts only inside it.
		{ID: 6, Name: "leg", Start: 200, End: 210},
		{ID: 7, Parent: 6, Name: "tail", Start: 205, End: 220},
	}
	want := map[string]time.Duration{
		"pass":   100 - 60, // children cover 10..70
		"submit": 30 - 10,
		"inner":  10,
		"scrape": 30 + 20, // overlap between scrapes is each one's own time
		"leg":    10 - 5,
		"tail":   15,
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if d := off.begin("x", 0).end(); d < 0 {
		t.Errorf("nil tracer timed %v", d)
	}
	tr := newTracer()
	outer := tr.begin("outer", 0)
	inner := tr.begin("inner", outer.id)
	inner.end()
	outer.end()
	now := time.Now()
	tr.record(0, outer.id, "leg", now, now.Add(time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] || s.ID == 0 {
			t.Errorf("span %+v: id not unique and non-zero", s)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Name != "outer" && s.Parent != outer.id {
			t.Errorf("span %+v: parent %d, want %d", s, s.Parent, outer.id)
		}
	}
}
