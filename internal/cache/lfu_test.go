package cache

import (
	"testing"
	"time"

	"cablevod/internal/trace"
)

// The lfu strategy: a windowed-frequency scorer under the LRU tiebreak.

func TestNewLFUNegativeHistory(t *testing.T) {
	if _, err := NewFrequencyScorer(-time.Hour); err == nil {
		t.Error("expected error")
	}
}

func TestLFUPrefersFrequent(t *testing.T) {
	c := mustCache(t, 4*gb, newLFU(t, 24*time.Hour))
	// Program 1 accessed 3 times, program 2 once; both cached.
	c.Access(1, 2*gb, 1*time.Second)
	c.Access(1, 2*gb, 2*time.Second)
	c.Access(1, 2*gb, 3*time.Second)
	c.Access(2, 2*gb, 4*time.Second)
	// Program 3 (first access, count 1) ties program 2 (count 1) and wins
	// the LRU tie-break; it must NOT displace program 1 (count 3).
	res := c.Access(3, 2*gb, 5*time.Second)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Errorf("result = %+v, want eviction of program 2", res)
	}
	if !c.Contains(1) {
		t.Error("frequent program was evicted")
	}
}

func TestLFURefusesWeakCandidate(t *testing.T) {
	c := mustCache(t, 4*gb, newLFU(t, 24*time.Hour))
	for i := 0; i < 3; i++ {
		c.Access(1, 2*gb, time.Duration(i)*time.Second)
		c.Access(2, 2*gb, time.Duration(i)*time.Second+500*time.Millisecond)
	}
	// Candidate 3 has count 1 < 3: eviction refused, cache unchanged.
	res := c.Access(3, 4*gb, 10*time.Second)
	if res.Admitted {
		t.Errorf("weak candidate admitted: %+v", res)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("cache contents changed on refused admission")
	}
}

func TestLFUWindowDecay(t *testing.T) {
	c := mustCache(t, 4*gb, newLFU(t, time.Hour))
	// Program 1: 3 accesses early; program 2: 2 accesses later.
	c.Access(1, 2*gb, 0)
	c.Access(1, 2*gb, time.Minute)
	c.Access(1, 2*gb, 2*time.Minute)
	c.Access(2, 2*gb, 50*time.Minute)
	c.Access(2, 2*gb, 55*time.Minute)
	// At t=80m program 1's accesses have all expired (window 60m);
	// program 2 still has 2. A new program (count 1) must evict 1, not 2.
	res := c.Access(3, 2*gb, 80*time.Minute)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("result = %+v, want eviction of decayed program 1", res)
	}
}

func TestLFUZeroHistoryIsLRU(t *testing.T) {
	// With history 0, LFU must behave exactly like LRU (paper, Fig 11).
	cl := mustCache(t, 6*gb, newLFU(t, 0))
	cr := mustCache(t, 6*gb, newLRU(t))
	x := uint64(99)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p := trace.ProgramID(x % 23)
		now := time.Duration(i) * time.Second
		rl := cl.Access(p, 2*gb, now)
		rr := cr.Access(p, 2*gb, now)
		if rl.Hit != rr.Hit || rl.Admitted != rr.Admitted || len(rl.Evicted) != len(rr.Evicted) {
			t.Fatalf("step %d diverged: lfu=%+v lru=%+v", i, rl, rr)
		}
		for j := range rl.Evicted {
			if rl.Evicted[j] != rr.Evicted[j] {
				t.Fatalf("step %d evicted %v vs %v", i, rl.Evicted, rr.Evicted)
			}
		}
	}
	if cl.Hits() != cr.Hits() {
		t.Errorf("hit counts diverged: %d vs %d", cl.Hits(), cr.Hits())
	}
}

func TestLFUTimeBackwardsPanics(t *testing.T) {
	l := newLFU(t, time.Hour)
	l.Advance(time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Advance(0)
}

func TestLFUCandidateValueCountsCurrentRequest(t *testing.T) {
	l := newLFU(t, time.Hour)
	l.OnRequest(5, time.Second)
	if got := valueAt(l, 5, time.Second); got != 1 {
		t.Errorf("CandidateValue = %d, want 1", got)
	}
}

func TestLFUTieBreakIsLRU(t *testing.T) {
	c := mustCache(t, 4*gb, newLFU(t, 24*time.Hour))
	c.Access(1, 2*gb, 1*time.Second)
	c.Access(2, 2*gb, 2*time.Second)
	c.Access(1, 2*gb, 3*time.Second)
	c.Access(2, 2*gb, 4*time.Second)
	// Both count 2; program 1 least recently used.
	res := c.Access(3, 2*gb, 5*time.Second)
	if res.Admitted {
		// Candidate count 1 < 2: must be refused.
		t.Fatalf("candidate with lower count admitted: %+v", res)
	}
	// Raise candidate's count to 2 with a second access; now tie admits
	// and evicts the LRU of the tied pair (program 1).
	res = c.Access(3, 2*gb, 6*time.Second)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("result = %+v, want tie-admission evicting program 1", res)
	}
}
