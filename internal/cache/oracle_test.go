package cache

import (
	"testing"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func futureRecords(accesses map[trace.ProgramID][]time.Duration) []trace.Record {
	var out []trace.Record
	for p, times := range accesses {
		for _, at := range times {
			out = append(out, trace.Record{User: 1, Program: p, Start: at, Duration: time.Minute})
		}
	}
	return out
}

// The oracle strategy: a future-window scorer under the LRU tiebreak.

func TestNewOracleErrors(t *testing.T) {
	if _, err := NewOracleScorer(nil, time.Hour); err == nil {
		t.Error("expected error for nil index")
	}
	idx := BuildFutureIndex(nil)
	if _, err := NewOracleScorer(idx, 0); err == nil {
		t.Error("expected error for zero lookahead")
	}
}

func TestOracleKeepsFutureWinners(t *testing.T) {
	// Program 1 has many future accesses; program 2 has none; program 3
	// has two. When program 3 arrives it must evict 2, not 1.
	idx2 := BuildFutureIndex(futureRecords(map[trace.ProgramID][]time.Duration{
		1: {10 * time.Minute, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour},
		2: {11 * time.Minute},
		3: {12 * time.Minute, 5 * time.Hour, 6 * time.Hour},
	}))
	c2 := mustCache(t, 4*gb, newOracle(t, idx2, DefaultOracleLookahead))
	c2.Access(1, 2*gb, 10*time.Minute)
	c2.Access(2, 2*gb, 11*time.Minute)
	res := c2.Access(3, 2*gb, 12*time.Minute)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Errorf("result = %+v, want eviction of program 2 (no future accesses)", res)
	}
	if !c2.Contains(1) {
		t.Error("program with rich future evicted")
	}
}

func TestOracleWindowSlides(t *testing.T) {
	idx := BuildFutureIndex(futureRecords(map[trace.ProgramID][]time.Duration{
		1: {0, 100 * time.Hour},
	}))
	o := newOracle(t, idx, 24*time.Hour)
	// The window is (now, now+24h]: the t=100h access enters it at
	// exactly 76h and leaves it at exactly 100h, when it is no longer
	// strictly future.
	for _, step := range []struct {
		now  time.Duration
		want int
	}{
		{0, 0},
		{76*time.Hour - 1, 0},
		{76 * time.Hour, 1},
		{80 * time.Hour, 1},
		{100*time.Hour - 1, 1},
		{100 * time.Hour, 0},
	} {
		if got := valueAt(o, 1, step.now); got != step.want {
			t.Errorf("value at t=%v = %d, want %d", step.now, got, step.want)
		}
	}
}

func TestOracleBeatsLFUOnAdversarialWorkload(t *testing.T) {
	// Workload: program 1 is accessed heavily early then never again;
	// program 2 becomes hot later. LFU keeps 1 too long; oracle must not.
	var recs []trace.Record
	add := func(p trace.ProgramID, at time.Duration) {
		recs = append(recs, trace.Record{User: 1, Program: p, Start: at, Duration: time.Minute})
	}
	for i := 0; i < 20; i++ {
		add(1, time.Duration(i)*time.Minute)
	}
	for i := 0; i < 40; i++ {
		add(2, 2*time.Hour+time.Duration(i)*time.Minute)
	}
	for i := 0; i < 40; i++ {
		add(3, 4*time.Hour+time.Duration(i)*time.Minute)
	}

	run := func(p Policy) uint64 {
		c := mustCache(t, 2*gb, p) // room for exactly one 2GB program
		for _, r := range recs {
			c.Access(r.Program, 2*gb, r.Start)
		}
		return c.Hits()
	}
	oracleHits := run(newOracle(t, BuildFutureIndex(recs), DefaultOracleLookahead))
	lfuHits := run(newLFU(t, 24*time.Hour))
	if oracleHits < lfuHits {
		t.Errorf("oracle hits %d < lfu hits %d", oracleHits, lfuHits)
	}
}

func TestOracleEvictionNeverExceedsCapacity(t *testing.T) {
	var recs []trace.Record
	x := uint64(7)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		recs = append(recs, trace.Record{
			User:     1,
			Program:  trace.ProgramID(x % 29),
			Start:    time.Duration(i) * time.Minute,
			Duration: time.Minute,
		})
	}
	c := mustCache(t, 5*gb, newOracle(t, BuildFutureIndex(recs), 12*time.Hour))
	for i, r := range recs {
		size := units.ByteSize(1+int(r.Program)%3) * gb
		c.Access(r.Program, size, r.Start)
		if c.Used() > c.Capacity() {
			t.Fatalf("step %d: used %v > capacity %v", i, c.Used(), c.Capacity())
		}
	}
}
