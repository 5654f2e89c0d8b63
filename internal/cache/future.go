package cache

import (
	"sort"
	"time"

	"cablevod/internal/trace"
)

// FutureIndex is a precomputed, time-sorted index of the accesses a cache
// will receive — the oracle's crystal ball. It is built from the same
// trace the simulation will replay.
type FutureIndex struct {
	// all is every (program, time) access sorted by time.
	all []futureAccess
}

type futureAccess struct {
	at      time.Duration
	program trace.ProgramID
}

// BuildFutureIndex indexes the given records (typically the requests of
// one neighborhood's users).
func BuildFutureIndex(records []trace.Record) *FutureIndex {
	idx := &FutureIndex{all: make([]futureAccess, 0, len(records))}
	for _, r := range records {
		idx.all = append(idx.all, futureAccess{at: r.Start, program: r.Program})
	}
	// sort.Slice is not stable: the order it leaves equal-time accesses
	// in is the order the oracle scorer counts them, so it is part of
	// the oracle's results.
	sort.Slice(idx.all, func(i, j int) bool { return idx.all[i].at < idx.all[j].at })
	return idx
}
