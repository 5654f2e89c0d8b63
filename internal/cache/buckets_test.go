package cache

import (
	"testing"
	"testing/quick"

	"cablevod/internal/trace"
)

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
	s := newBucketSet()
	s.add(1, 5)
	s.add(2, 1)
	s.add(3, 3)
	s.add(4, 1) // same count as 2, added later => more recent
	got := collect(s)
	want := []trace.ProgramID{2, 4, 3, 1}
	if !idsEqual(got, want) {
		t.Errorf("victim order = %v, want %v", got, want)
	}
	if p, c, ok := s.min(); !ok || p != 2 || c != 1 {
		t.Errorf("min() = (%d, %d, %v), want (2, 1, true)", p, c, ok)
	}
}

func TestBucketSetTouch(t *testing.T) {
	s := newBucketSet()
	s.add(1, 0)
	s.add(2, 0)
	s.add(3, 0)
	s.touch(1) // 1 becomes most recent
	got := collect(s)
	want := []trace.ProgramID{2, 3, 1}
	if !idsEqual(got, want) {
		t.Errorf("order after touch = %v, want %v", got, want)
	}
}

func TestBucketSetSetCountUpAndDown(t *testing.T) {
	s := newBucketSet()
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
	if s.count(2) != 5 || s.count(3) != 1 {
		t.Errorf("counts = %d, %d", s.count(2), s.count(3))
	}
}

func TestBucketSetDecayedEntryIsLRUWithinBucket(t *testing.T) {
	s := newBucketSet()
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
	s := newBucketSet()
	s.add(1, 1)
	s.add(2, 2)
	s.remove(1)
	if s.contains(1) {
		t.Error("removed program still tracked")
	}
	if s.len() != 1 {
		t.Errorf("len = %d, want 1", s.len())
	}
	if p, _, ok := s.min(); !ok || p != 2 {
		t.Errorf("min after remove = %d", p)
	}
	s.remove(2)
	if _, _, ok := s.min(); ok {
		t.Error("min on empty set should report !ok")
	}
}

func TestBucketSetPanics(t *testing.T) {
	s := newBucketSet()
	s.add(1, 0)
	for name, f := range map[string]func(){
		"double add":       func() { s.add(1, 0) },
		"remove unknown":   func() { s.remove(9) },
		"touch unknown":    func() { s.touch(9) },
		"count unknown":    func() { s.count(9) },
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
	s := newBucketSet()
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
		s := newBucketSet()
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
					s.remove(p)
					delete(tracked, p)
				}
			case 2:
				if tracked[p] {
					s.touch(p)
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
		s := newBucketSet()
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
					s.remove(p)
					m = m.remove(i)
				}
			case 2: // touch
				if i >= 0 {
					s.touch(p)
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
				s.setCount(p, c)
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

// bucketSetEquals compares the set's full victim order, size, minimum
// and per-program counts against the model.
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
	p, c, found := s.min()
	if found != (len(m) > 0) || (found && (p != m[0].p || c != m[0].c)) {
		return false
	}
	for _, e := range m {
		if !s.contains(e.p) || s.count(e.p) != e.c {
			return false
		}
	}
	return true
}
