package cache

import (
	"testing"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

const gb = units.GB

func mustCache(t *testing.T, capacity units.ByteSize, p Policy) *Cache {
	t.Helper()
	c, err := New(capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheErrors(t *testing.T) {
	if _, err := New(-1, NewLRU()); err == nil {
		t.Error("expected error for negative capacity")
	}
	if _, err := New(1, nil); err == nil {
		t.Error("expected error for nil policy")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	c.Access(1, 2*gb, 0)             // miss, admitted
	c.Access(1, 2*gb, time.Second)   // hit
	c.Access(2, 2*gb, 2*time.Second) // miss
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", c.Hits(), c.Misses())
	}
	if got := c.HitRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("HitRatio() = %v, want ~1/3", got)
	}
}

func TestCacheAdmitWithoutEviction(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	res := c.Access(1, 4*gb, 0)
	if res.Hit || !res.Admitted || len(res.Evicted) != 0 {
		t.Errorf("result = %+v", res)
	}
	if c.Used() != 4*gb || c.Len() != 1 {
		t.Errorf("used = %v, len = %d", c.Used(), c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	c.Access(1, 4*gb, 1*time.Second)
	c.Access(2, 4*gb, 2*time.Second)
	c.Access(1, 4*gb, 3*time.Second) // refresh 1; LRU victim is now 2
	res := c.Access(3, 4*gb, 4*time.Second)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Errorf("result = %+v, want eviction of program 2", res)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Error("wrong cache contents after eviction")
	}
}

func TestCacheEvictsMultipleForLargeProgram(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	c.Access(1, 3*gb, 1*time.Second)
	c.Access(2, 3*gb, 2*time.Second)
	c.Access(3, 3*gb, 3*time.Second)
	res := c.Access(4, 7*gb, 4*time.Second)
	if !res.Admitted || len(res.Evicted) != 2 {
		t.Fatalf("result = %+v, want 2 evictions", res)
	}
	if res.Evicted[0] != 1 || res.Evicted[1] != 2 {
		t.Errorf("evicted %v, want [1 2]", res.Evicted)
	}
	if c.Used() != 10*gb {
		t.Errorf("used = %v, want 10 GB", c.Used())
	}
}

func TestCacheRejectsOversizedProgram(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	res := c.Access(1, 11*gb, 0)
	if res.Admitted {
		t.Error("oversized program admitted")
	}
	if c.Len() != 0 {
		t.Error("cache not empty")
	}
}

func TestCacheZeroSizeNotAdmitted(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	res := c.Access(1, 0, 0)
	if res.Admitted {
		t.Error("zero-size program admitted")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := mustCache(t, 0, NewLRU())
	res := c.Access(1, gb, 0)
	if res.Admitted || res.Hit {
		t.Errorf("result = %+v", res)
	}
}

func TestCacheForcedEvict(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	c.Access(1, 4*gb, 0)
	if !c.Evict(1) {
		t.Error("Evict returned false for cached program")
	}
	if c.Evict(1) {
		t.Error("Evict returned true for uncached program")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Error("eviction did not free space")
	}
}

func TestCacheContents(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	c.Access(1, 2*gb, 1*time.Second)
	c.Access(2, 2*gb, 2*time.Second)
	c.Access(1, 2*gb, 3*time.Second)
	got := c.Contents()
	want := []trace.ProgramID{2, 1} // LRU first
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Contents() = %v, want %v", got, want)
	}
}

func TestCacheNegativeSizePanics(t *testing.T) {
	c := mustCache(t, 10*gb, NewLRU())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Access(1, -1, 0)
}

// Capacity is never exceeded across arbitrary workloads.
func TestCacheCapacityInvariant(t *testing.T) {
	policies := map[string]func() Policy{
		"lru": func() Policy { return NewLRU() },
		"lfu": func() Policy {
			p, err := NewLFU(time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			c := mustCache(t, 7*gb, mk())
			// Deterministic pseudo-random workload.
			x := uint64(12345)
			for i := 0; i < 5000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				p := trace.ProgramID(x % 37)
				size := units.ByteSize(1+(x>>8)%4) * gb
				c.Access(p, size, time.Duration(i)*time.Second)
				if c.Used() > c.Capacity() {
					t.Fatalf("step %d: used %v exceeds capacity %v", i, c.Used(), c.Capacity())
				}
			}
			// Bookkeeping agrees with contents.
			var sum units.ByteSize
			for _, p := range c.Contents() {
				size, ok := c.ChargedSize(p)
				if !ok {
					t.Fatalf("listed program %d has no charged size", p)
				}
				sum += size
			}
			if sum != c.Used() {
				t.Errorf("sizes sum %v != used %v", sum, c.Used())
			}
		})
	}
}
