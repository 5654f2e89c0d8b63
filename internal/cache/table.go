package cache

import (
	"fmt"

	"cablevod/internal/trace"
)

// Key is a program's dense slot in its cache's program table. Per-program
// state on the request path (charged sizes, victim-order nodes, windowed
// counts, the core index server's placements) lives in slices indexed
// by Key, so a request pays one map probe to resolve its program instead
// of one per structure.
//
// Keys are handed out in arrival order and recycled, so they differ
// between a run and its restore or fork: nothing may iterate keys to
// produce a result or exported state.
type Key int32

// NoKey is the key of a program holding no live state.
const NoKey Key = -1

// Holder bits: each names one structure keeping a program's key live.
// A key is recycled when its last holder lets go.
const (
	holdCached  uint8 = 1 << iota // in the Cache's contents
	holdTracked                   // in a bucketSet's victim order
	holdCounted                   // a nonzero windowed count in a built-in scorer
	holdPinned                    // pinned by the cache's owner (Cache.Pin)
)

// programTable maps the programs with live state to dense keys. It
// holds exactly the programs some holder has claimed — never the whole
// catalog — so every keyed slice is sized by live state. When the last
// holder of a key lets go, the key's generation is bumped and the key
// is reused for the next new program; a (key, generation) pair memoized
// earlier then no longer validates.
type programTable struct {
	index map[trace.ProgramID]Key
	slots []tableSlot
	free  []Key // released keys, reused last-in first-out
}

type tableSlot struct {
	program trace.ProgramID
	gen     uint32
	holds   uint8
}

func newProgramTable() *programTable {
	return &programTable{index: make(map[trace.ProgramID]Key)}
}

// lookup returns p's key, or NoKey when p holds no live state.
func (t *programTable) lookup(p trace.ProgramID) Key {
	if k, ok := t.index[p]; ok {
		return k
	}
	return NoKey
}

// acquire returns p's key, assigning one if p holds none, and sets the
// holder bit.
func (t *programTable) acquire(p trace.ProgramID, bit uint8) Key {
	k, ok := t.index[p]
	if !ok {
		if n := len(t.free); n > 0 {
			k = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			k = Key(len(t.slots))
			t.slots = append(t.slots, tableSlot{gen: 1})
		}
		t.slots[k].program = p
		t.index[p] = k
	}
	t.slots[k].holds |= bit
	return k
}

// hold sets a holder bit on k for p, assigning a key when k is NoKey.
// It is acquire without the lookup when the caller already resolved p.
func (t *programTable) hold(k Key, p trace.ProgramID, bit uint8) Key {
	if k == NoKey {
		return t.acquire(p, bit)
	}
	t.slots[k].holds |= bit
	return k
}

// release clears a holder bit on the live key k. When no holder is
// left, the key is recycled: p leaves the table and the generation is
// bumped.
func (t *programTable) release(k Key, bit uint8) {
	s := &t.slots[k]
	if s.holds&bit == 0 {
		panic(fmt.Sprintf("cache: release of unheld key %d (program %d, bit %#x)", k, s.program, bit))
	}
	s.holds &^= bit
	if s.holds == 0 {
		delete(t.index, s.program)
		s.gen++
		t.free = append(t.free, k)
	}
}

// held reports whether the key k (NoKey allowed) carries the holder bit.
func (t *programTable) held(k Key, bit uint8) bool {
	return k != NoKey && t.slots[k].holds&bit != 0
}

// program returns the program a live key stands for.
func (t *programTable) program(k Key) trace.ProgramID { return t.slots[k].program }

// live reports whether (k, gen), memoized while k was live, still
// names the same program: every release to zero holders bumps the
// generation, so a recycled key never validates again. Generations
// start at 1, so the zero memo never validates.
func (t *programTable) live(k Key, gen uint32) bool {
	return uint(k) < uint(len(t.slots)) && t.slots[k].gen == gen
}

// GrowKeyed extends a slice indexed by Key so that k indexes it. Keyed
// slices grow with the table's high-water mark of live keys, never
// with the catalog.
func GrowKeyed[T any](s []T, k Key) []T {
	if int(k) < len(s) {
		return s
	}
	s = append(s, make([]T, int(k)+1-len(s))...)
	return s[:cap(s)]
}
