package cache

import (
	"testing"
	"testing/quick"

	"cablevod/internal/trace"
)

// The tests drive the set the way a Pipeline does: entries resolved
// once, then moved with the keyed methods (touchNode, setCountNode,
// removeNode).

func collect(s *bucketSet) []trace.ProgramID {
	var out []trace.ProgramID
	s.ascend(func(p trace.ProgramID, _ int) bool {
		out = append(out, p)
		return true
	})
	return out
}

func idsEqual(a, b []trace.ProgramID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBucketSetAddAndOrder(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 5)
	s.add(2, 1)
	s.add(3, 3)
	s.add(4, 1) // same count as 2, added later => more recent
	got := collect(s)
	want := []trace.ProgramID{2, 4, 3, 1}
	if !idsEqual(got, want) {
		t.Errorf("victim order = %v, want %v", got, want)
	}
}

func TestBucketSetTouch(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 0)
	s.add(2, 0)
	s.add(3, 0)
	s.touchNode(s.mustNode(1)) // 1 becomes most recent
	got := collect(s)
	want := []trace.ProgramID{2, 3, 1}
	if !idsEqual(got, want) {
		t.Errorf("order after touch = %v, want %v", got, want)
	}
}

func TestBucketSetSetCountUpAndDown(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 2)
	s.add(2, 2)
	s.add(3, 2)
	s.setCount(2, 5) // up: most recent in new bucket
	s.setCount(3, 1) // down
	got := collect(s)
	want := []trace.ProgramID{3, 1, 2}
	if !idsEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if c2, c3 := s.mustNode(2).bucket.count, s.mustNode(3).bucket.count; c2 != 5 || c3 != 1 {
		t.Errorf("counts = %d, %d", c2, c3)
	}
}

func TestBucketSetDecayedEntryIsLRUWithinBucket(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 1)
	s.add(2, 2)
	// 2 decays into 1's bucket: decays go to the LRU side.
	s.setCount(2, 1)
	got := collect(s)
	want := []trace.ProgramID{2, 1}
	if !idsEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestBucketSetRemove(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 1)
	s.add(2, 2)
	s.removeNode(s.mustNode(1))
	if s.contains(1) {
		t.Error("removed program still tracked")
	}
	if s.len() != 1 {
		t.Errorf("len = %d, want 1", s.len())
	}
	if got := collect(s); !idsEqual(got, []trace.ProgramID{2}) {
		t.Errorf("order after remove = %v, want [2]", got)
	}
	s.removeNode(s.mustNode(2))
	if s.len() != 0 || s.first != nil {
		t.Errorf("emptied set keeps %d entries", s.len())
	}
	if s.tab.lookup(1) != NoKey || s.tab.lookup(2) != NoKey {
		t.Error("removed programs still hold keys")
	}
}

func TestBucketSetPanics(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	s.add(1, 0)
	for name, f := range map[string]func(){
		"double add":       func() { s.add(1, 0) },
		"setCount unknown": func() { s.setCount(9, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestBucketSetAscendEarlyStop(t *testing.T) {
	s := newBucketSetOn(newProgramTable())
	for i := trace.ProgramID(1); i <= 10; i++ {
		s.add(i, int(i))
	}
	n := 0
	s.ascend(func(trace.ProgramID, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("ascend visited %d entries, want 3", n)
	}
}

// Property: ascend always yields counts in non-decreasing order, regardless
// of the operation sequence applied.
func TestBucketSetOrderInvariant(t *testing.T) {
	type op struct {
		Kind  uint8
		P     uint8
		Count uint8
	}
	f := func(ops []op) bool {
		s := newBucketSetOn(newProgramTable())
		tracked := map[trace.ProgramID]bool{}
		for _, o := range ops {
			p := trace.ProgramID(o.P % 16)
			switch o.Kind % 4 {
			case 0:
				if !tracked[p] {
					s.add(p, int(o.Count%8))
					tracked[p] = true
				}
			case 1:
				if tracked[p] {
					s.removeNode(s.mustNode(p))
					delete(tracked, p)
				}
			case 2:
				if tracked[p] {
					s.touchNode(s.mustNode(p))
				}
			case 3:
				if tracked[p] {
					s.setCount(p, int(o.Count%8))
				}
			}
		}
		// Invariants: ascend yields each tracked program exactly once,
		// counts non-decreasing.
		seen := map[trace.ProgramID]bool{}
		last := -1
		okOrder := true
		s.ascend(func(p trace.ProgramID, c int) bool {
			if c < last {
				okOrder = false
			}
			last = c
			if seen[p] {
				okOrder = false
			}
			seen[p] = true
			return true
		})
		if !okOrder || len(seen) != len(tracked) {
			return false
		}
		for p := range tracked {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// bucketModel is the naive reference for bucketSet: the victim order
// as a plain slice of (program, count), maintained by linear scans.
type bucketModel []struct {
	p trace.ProgramID
	c int
}

func (m bucketModel) find(p trace.ProgramID) int {
	for i, e := range m {
		if e.p == p {
			return i
		}
	}
	return -1
}

// insert places p at count c: after every entry with count <= c when
// mru (most recently used in its bucket), else before every entry with
// count >= c (least recently used).
func (m bucketModel) insert(p trace.ProgramID, c int, mru bool) bucketModel {
	i := 0
	if mru {
		for i < len(m) && m[i].c <= c {
			i++
		}
	} else {
		for i < len(m) && m[i].c < c {
			i++
		}
	}
	m = append(m[:i], append(bucketModel{{p, c}}, m[i:]...)...)
	return m
}

func (m bucketModel) remove(i int) bucketModel {
	return append(m[:i], m[i+1:]...)
}

// TestBucketSetMatchesModel replays random add/remove/touch/setCount
// sequences against the naive model and compares the full victim order
// — programs, counts and recency within each count — after every step.
// Count moves cover ±1 steps, multi-step jumps and absolute targets;
// with few programs and few counts, moves regularly empty their source
// bucket and land on an existing one. The run fails if any of those
// move shapes never occurred.
func TestBucketSetMatchesModel(t *testing.T) {
	type op struct {
		Kind  uint8
		P     uint8
		Count uint8
	}
	var stepMoves, jumpMoves, emptiedSource, ontoExisting int
	f := func(ops []op) bool {
		s := newBucketSetOn(newProgramTable())
		var m bucketModel
		for _, o := range ops {
			p := trace.ProgramID(o.P % 12)
			i := m.find(p)
			switch o.Kind % 6 {
			case 0: // add
				if i < 0 {
					c := int(o.Count % 6)
					s.add(p, c)
					m = m.insert(p, c, true)
				}
			case 1: // remove
				if i >= 0 {
					s.removeNode(s.mustNode(p))
					m = m.remove(i)
				}
			case 2: // touch
				if i >= 0 {
					s.touchNode(s.mustNode(p))
					c := m[i].c
					m = m.remove(i).insert(p, c, true)
				}
			case 3, 4, 5: // setCount: ±1, a jump of 2-4, or an absolute target
				if i < 0 {
					continue
				}
				old := m[i].c
				var c int
				switch o.Kind % 6 {
				case 3:
					c = old + 1
					if o.Count%2 == 1 && old > 0 {
						c = old - 1
					}
					stepMoves++
				case 4:
					c = old + 2 + int(o.Count%3)
					if o.Count%2 == 1 && old >= 2 {
						c = old - 2 - int(o.Count%3)
						if c < 0 {
							c = 0
						}
					}
					jumpMoves++
				default:
					c = int(o.Count % 8)
				}
				if c != old {
					alone, existing := true, false
					for j, e := range m {
						if j != i && e.c == old {
							alone = false
						}
						if e.c == c {
							existing = true
						}
					}
					if alone {
						emptiedSource++
					}
					if existing {
						ontoExisting++
					}
				}
				s.setCountNode(s.mustNode(p), c)
				if c != old {
					m = m.remove(i).insert(p, c, c > old)
				}
			}
			if !bucketSetEquals(s, m) {
				t.Logf("after op %+v: set %v, model %v", o, collect(s), m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if stepMoves == 0 || jumpMoves == 0 || emptiedSource == 0 || ontoExisting == 0 {
		t.Errorf("move shapes not all exercised: ±1 %d, jumps %d, emptied source %d, onto existing bucket %d",
			stepMoves, jumpMoves, emptiedSource, ontoExisting)
	}
}

// bucketSetEquals compares the set's full victim order, size and
// per-program counts against the model.
func bucketSetEquals(s *bucketSet, m bucketModel) bool {
	if s.len() != len(m) {
		return false
	}
	i := 0
	ok := true
	s.ascend(func(p trace.ProgramID, c int) bool {
		if i >= len(m) || m[i].p != p || m[i].c != c {
			ok = false
			return false
		}
		i++
		return true
	})
	if !ok || i != len(m) {
		return false
	}
	for _, e := range m {
		if !s.contains(e.p) || s.mustNode(e.p).bucket.count != e.c {
			return false
		}
	}
	return true
}
