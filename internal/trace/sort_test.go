package trace

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// sortSliceReference is Sort as it was: sort.Slice over the records with
// a (Start, User, Program) less function.
func sortSliceReference(recs []Record) { sort.Slice(recs, lessReference(recs)) }

func lessReference(recs []Record) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Program < b.Program
	}
}

// TestTraceSortMatchesSortSlice: Sort puts records in exactly the order
// sort.Slice does, full (Start, User, Program) ties included, which it
// tells apart by their payloads. Keys are drawn from small ranges so
// ties are common, and from extreme ones so signs matter.
func TestTraceSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func(n int64) int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		case 2:
			return -rng.Int63n(n) - 1
		}
		return rng.Int63n(n)
	}
	for i := range 3000 {
		n := rng.Intn(400)
		if i%100 == 0 {
			n = 5000 + rng.Intn(20000)
		}
		span := 1 + rng.Int63n(int64(n)/4+2)
		recs := make([]Record, n)
		for j := range recs {
			recs[j] = Record{
				User:     UserID(draw(3)),
				Program:  ProgramID(draw(3)),
				Start:    time.Duration(draw(span)),
				Duration: time.Duration(j + 1),
				Offset:   time.Duration(rng.Intn(3)),
			}
		}
		switch i % 7 {
		case 1:
			sortSliceReference(recs) // sorted input
		case 2:
			sortSliceReference(recs)
			slices.Reverse(recs)
		}
		want := slices.Clone(recs)
		sortSliceReference(want)
		tr := &Trace{Records: recs}
		tr.Sort()
		if !slices.Equal(tr.Records, want) {
			t.Fatalf("input %d (%d records): Sort's order differs from sort.Slice's", i, n)
		}
		if !tr.Sorted() {
			t.Fatalf("input %d: Sorted is false after Sort", i)
		}
		if n > 1 {
			// The last two records out of order, and in order: Sorted
			// sees exactly sort.SliceIsSorted's verdict.
			recs[n-1], recs[n-2] = recs[n-2], recs[n-1]
			if tr.Sorted() != sort.SliceIsSorted(recs, lessReference(recs)) {
				t.Fatalf("input %d: Sorted disagrees with sort.SliceIsSorted", i)
			}
		}
	}
}
