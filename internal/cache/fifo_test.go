package cache

import (
	"math/rand/v2"
	"testing"
)

// TestFIFOMatchesSliceModel drives a ring FIFO and a plain slice with the
// same random bursts of pushes and pops and the odd reset, checking
// every entry after each burst, that the ring grew while wrapped, and
// that its capacity stays within twice the largest backlog it has held.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var q fifo[int]
	var model []int
	largest, wrappedGrowths := 0, 0
	for round := range 2000 {
		if rng.IntN(50) == 0 {
			q.reset()
			model = model[:0]
		}
		for range rng.IntN(300) {
			if q.len() == len(q.buf) && q.head != 0 {
				wrappedGrowths++
			}
			v := rng.Int()
			q.push(v)
			model = append(model, v)
			largest = max(largest, len(model))
			if len(q.buf) > 2*largest {
				t.Fatalf("round %d: ring of %d for a largest backlog of %d", round, len(q.buf), largest)
			}
		}
		for range rng.IntN(len(model) + 1) {
			if got := q.pop(); got != model[0] {
				t.Fatalf("round %d: pop = %d, want %d", round, got, model[0])
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("round %d: len = %d, want %d", round, q.len(), len(model))
		}
		for i, want := range model {
			if got := *q.at(i); got != want {
				t.Fatalf("round %d: entry %d = %d, want %d", round, i, got, want)
			}
		}
	}
	if wrappedGrowths == 0 {
		t.Fatal("the ring never grew while wrapped")
	}
}
