package synth_test

import (
	"slices"
	"sort"
	"testing"

	"cablevod/internal/hfc"
	"cablevod/internal/scenario"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// TestStreamHourSortMatchesSortSlice: on the streams whose hours hold
// full (Start, User, Program) ties between records of different
// payloads — the 7-day BENCH plant at seed 1 has one, the flash-crowd
// scenario on it at seed 2 has two — trace.Sort orders every hour
// exactly as sort.Slice with the old less function did.
func TestStreamHourSortMatchesSortSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 7-day plants")
	}
	plant := func(seed uint64) synth.Config {
		c := synth.DefaultConfig()
		c.Seed, c.Days = seed, 7
		return c
	}
	plantStream, err := synth.NewStream(plant(1), synth.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Lookup("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	flashStream, _, err := scenario.NewStream(b.Build(plant(2)), hfc.Config{NeighborhoodSize: 1000, PerPeerStorage: 2 * units.GB})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		s      *synth.Stream
		minTie int
	}{{"plant seed 1", plantStream, 1}, {"flash-crowd seed 2", flashStream, 2}} {
		ties := 0
		for !c.s.Done() {
			raw, _, err := c.s.NextHourRaw()
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(raw)
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.Start != b.Start {
					return a.Start < b.Start
				}
				if a.User != b.User {
					return a.User < b.User
				}
				return a.Program < b.Program
			})
			(&trace.Trace{Records: raw}).Sort()
			if !slices.Equal(raw, want) {
				t.Fatalf("%s: an hour sorts differently from sort.Slice", c.name)
			}
			for i := 1; i < len(raw); i++ {
				a, b := raw[i-1], raw[i]
				if a.Start == b.Start && a.User == b.User && a.Program == b.Program && a != b {
					ties++
				}
			}
		}
		if ties < c.minTie {
			t.Errorf("%s: %d full ties with different payloads, want at least %d", c.name, ties, c.minTie)
		}
		t.Logf("%s: %d full ties with different payloads", c.name, ties)
	}
}
