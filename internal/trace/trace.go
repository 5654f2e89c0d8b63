// Package trace defines the session-record model for VoD workload traces
// (the shape of the PowerInfo trace the paper evaluates on), together with
// container operations, CSV/gob serialization, summary statistics,
// program-length inference, and the user/catalog scaling transforms of
// Section V-A.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// UserID identifies a subscriber.
type UserID int32

// ProgramID identifies a program in the catalog.
type ProgramID int32

// Record is one VoD session: a user watched a program starting at Start
// (offset from the trace epoch) for Duration. This mirrors the PowerInfo
// record fields the paper uses (user, program, session length). Offset is
// the position inside the program where playback began: 0 for normal
// sessions, a later point for the fast-forward "jump to predetermined
// points" mechanism the paper proposes (Section IV-B.1).
type Record struct {
	User     UserID
	Program  ProgramID
	Start    time.Duration
	Duration time.Duration
	Offset   time.Duration
}

// End returns the session end time.
func (r Record) End() time.Duration { return r.Start + r.Duration }

// Validate checks a record for structural sanity.
func (r Record) Validate() error {
	switch {
	case r.User < 0:
		return fmt.Errorf("trace: negative user id %d", r.User)
	case r.Program < 0:
		return fmt.Errorf("trace: negative program id %d", r.Program)
	case r.Start < 0:
		return fmt.Errorf("trace: negative start %v", r.Start)
	case r.Duration <= 0:
		return fmt.Errorf("trace: non-positive duration %v", r.Duration)
	case r.Offset < 0:
		return fmt.Errorf("trace: negative offset %v", r.Offset)
	case r.Duration > math.MaxInt64-r.Start:
		return fmt.Errorf("trace: session end overflows: start %v plus duration %v", r.Start, r.Duration)
	default:
		return nil
	}
}

// Trace is an ordered collection of session records plus catalog metadata.
// Records are kept sorted by (Start, User, Program).
type Trace struct {
	// Records holds the sessions sorted by start time.
	Records []Record

	// ProgramLengths maps each program to its full playback length.
	// It may be empty for raw traces; InferProgramLengths fills it.
	ProgramLengths map[ProgramID]time.Duration
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{ProgramLengths: make(map[ProgramID]time.Duration)}
}

// Append adds a record (without re-sorting; call Sort when done).
func (t *Trace) Append(r Record) {
	t.Records = append(t.Records, r)
}

// Sort orders records by (Start, User, Program) so playback and scaling are
// deterministic. Records equal in all three keep the order pdqsort's
// moves leave them in, and generated streams depend on it: sort.Sort
// runs the same pdqsort code as sort.Slice with the same less function,
// so both give the same order, full ties included.
func (t *Trace) Sort() { sort.Sort(byKey(t.Records)) }

// Sorted reports whether records are in (Start, User, Program) order.
func (t *Trace) Sorted() bool { return sort.IsSorted(byKey(t.Records)) }

// byKey orders records by (Start, User, Program).
type byKey []Record

func (s byKey) Len() int      { return len(s) }
func (s byKey) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

func (s byKey) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.User != b.User {
		return a.User < b.User
	}
	return a.Program < b.Program
}

// Validate checks every record and that the trace is sorted.
func (t *Trace) Validate() error {
	for i, r := range t.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	if !t.Sorted() {
		return fmt.Errorf("trace: records not sorted by start time")
	}
	return nil
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Span returns the [start, end) extent of the trace: the earliest session
// start and the latest session end. A nil or empty trace spans [0, 0).
func (t *Trace) Span() (start, end time.Duration) {
	if t == nil || len(t.Records) == 0 {
		return 0, 0
	}
	start = t.Records[0].Start
	for _, r := range t.Records {
		if r.Start < start {
			start = r.Start
		}
		if e := r.End(); e > end {
			end = e
		}
	}
	return start, end
}

// Users returns the sorted set of distinct users.
func (t *Trace) Users() []UserID {
	seen := make(map[UserID]struct{})
	for _, r := range t.Records {
		seen[r.User] = struct{}{}
	}
	out := make([]UserID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Programs returns the sorted set of distinct programs referenced by
// records or the length table.
func (t *Trace) Programs() []ProgramID {
	seen := make(map[ProgramID]struct{})
	for _, r := range t.Records {
		seen[r.Program] = struct{}{}
	}
	for p := range t.ProgramLengths {
		seen[p] = struct{}{}
	}
	out := make([]ProgramID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Window returns a new trace containing records with Start in [from, to).
// Program lengths are shared (copied by reference into a fresh map).
func (t *Trace) Window(from, to time.Duration) *Trace {
	out := New()
	for _, r := range t.Records {
		if r.Start >= from && r.Start < to {
			out.Append(r)
		}
	}
	for p, l := range t.ProgramLengths {
		out.ProgramLengths[p] = l
	}
	return out
}

// FilterProgram returns the records for one program, in start order.
func (t *Trace) FilterProgram(p ProgramID) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.Program == p {
			out = append(out, r)
		}
	}
	return out
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	out := New()
	out.Records = append([]Record(nil), t.Records...)
	for p, l := range t.ProgramLengths {
		out.ProgramLengths[p] = l
	}
	return out
}

// ProgramLength returns the program's full length. When the length table
// has no entry (raw trace), it falls back to the longest observed session
// for the program, and zero when the program never appears.
func (t *Trace) ProgramLength(p ProgramID) time.Duration {
	if l, ok := t.ProgramLengths[p]; ok {
		return l
	}
	var longest time.Duration
	for _, r := range t.Records {
		if r.Program == p && r.Duration > longest {
			longest = r.Duration
		}
	}
	return longest
}
