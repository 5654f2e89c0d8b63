package trace

import (
	"testing"
	"testing/quick"
	"time"
)

func mkTrace(recs ...Record) *Trace {
	t := New()
	for _, r := range recs {
		t.Append(r)
	}
	t.Sort()
	return t
}

func rec(u UserID, p ProgramID, startMin, durMin int) Record {
	return Record{
		User:     u,
		Program:  p,
		Start:    time.Duration(startMin) * time.Minute,
		Duration: time.Duration(durMin) * time.Minute,
	}
}

func TestRecordValidate(t *testing.T) {
	tests := []struct {
		name    string
		r       Record
		wantErr bool
	}{
		{"valid", rec(1, 2, 0, 10), false},
		{"negative user", Record{User: -1, Program: 1, Duration: time.Minute}, true},
		{"negative program", Record{User: 1, Program: -1, Duration: time.Minute}, true},
		{"negative start", Record{User: 1, Program: 1, Start: -time.Second, Duration: time.Minute}, true},
		{"zero duration", Record{User: 1, Program: 1}, true},
		{"end overflows", Record{User: 1, Program: 1, Start: 9223372036 * time.Second, Duration: time.Minute}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.r.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSortAndValidate(t *testing.T) {
	tr := mkTrace(
		rec(2, 1, 30, 10),
		rec(1, 1, 10, 10),
		rec(3, 2, 20, 5),
	)
	if !tr.Sorted() {
		t.Fatal("trace not sorted after Sort()")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if tr.Records[0].User != 1 || tr.Records[1].User != 3 || tr.Records[2].User != 2 {
		t.Errorf("unexpected order: %+v", tr.Records)
	}
}

func TestValidateDetectsUnsorted(t *testing.T) {
	tr := New()
	tr.Append(rec(1, 1, 30, 10))
	tr.Append(rec(1, 1, 10, 10))
	if err := tr.Validate(); err == nil {
		t.Error("expected error for unsorted trace")
	}
}

func TestSpan(t *testing.T) {
	tr := mkTrace(rec(1, 1, 10, 20), rec(2, 2, 5, 10), rec(3, 3, 40, 60))
	start, end := tr.Span()
	if start != 5*time.Minute {
		t.Errorf("start = %v, want 5m", start)
	}
	if end != 100*time.Minute {
		t.Errorf("end = %v, want 100m", end)
	}
}

func TestSpanEmpty(t *testing.T) {
	start, end := New().Span()
	if start != 0 || end != 0 {
		t.Errorf("empty span = (%v, %v), want (0, 0)", start, end)
	}
	var nilTrace *Trace
	start, end = nilTrace.Span()
	if start != 0 || end != 0 {
		t.Errorf("nil span = (%v, %v), want (0, 0)", start, end)
	}
}

func TestUsersAndPrograms(t *testing.T) {
	tr := mkTrace(rec(5, 7, 0, 1), rec(3, 7, 1, 1), rec(5, 2, 2, 1))
	users := tr.Users()
	if len(users) != 2 || users[0] != 3 || users[1] != 5 {
		t.Errorf("Users() = %v, want [3 5]", users)
	}
	tr.ProgramLengths[9] = time.Hour // appears only in length table
	progs := tr.Programs()
	if len(progs) != 3 || progs[0] != 2 || progs[1] != 7 || progs[2] != 9 {
		t.Errorf("Programs() = %v, want [2 7 9]", progs)
	}
}

func TestWindow(t *testing.T) {
	tr := mkTrace(rec(1, 1, 0, 5), rec(1, 1, 10, 5), rec(1, 1, 20, 5))
	tr.ProgramLengths[1] = time.Hour
	w := tr.Window(5*time.Minute, 20*time.Minute)
	if w.Len() != 1 || w.Records[0].Start != 10*time.Minute {
		t.Errorf("Window() = %+v, want the single 10m record", w.Records)
	}
	if w.ProgramLengths[1] != time.Hour {
		t.Error("program lengths not carried into window")
	}
	// Boundary semantics: [from, to)
	w2 := tr.Window(0, 10*time.Minute)
	if w2.Len() != 1 {
		t.Errorf("half-open window captured %d records, want 1", w2.Len())
	}
}

func TestFilterProgramAndClone(t *testing.T) {
	tr := mkTrace(rec(1, 1, 0, 5), rec(2, 2, 1, 5), rec(3, 1, 2, 5))
	got := tr.FilterProgram(1)
	if len(got) != 2 {
		t.Fatalf("FilterProgram(1) returned %d records, want 2", len(got))
	}

	cl := tr.Clone()
	cl.Records[0].User = 99
	cl.ProgramLengths[5] = time.Minute
	if tr.Records[0].User == 99 {
		t.Error("Clone shares record storage")
	}
	if _, ok := tr.ProgramLengths[5]; ok {
		t.Error("Clone shares length map")
	}
}

func TestProgramLengthFallback(t *testing.T) {
	tr := mkTrace(rec(1, 1, 0, 42), rec(2, 1, 1, 17))
	if got := tr.ProgramLength(1); got != 42*time.Minute {
		t.Errorf("fallback length = %v, want 42m", got)
	}
	tr.ProgramLengths[1] = 60 * time.Minute
	if got := tr.ProgramLength(1); got != time.Hour {
		t.Errorf("table length = %v, want 1h", got)
	}
	if got := tr.ProgramLength(99); got != 0 {
		t.Errorf("unknown program length = %v, want 0", got)
	}
}

func TestSortIsDeterministicProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		t1, t2 := New(), New()
		for _, s := range seeds {
			r := Record{
				User:     UserID(s % 17),
				Program:  ProgramID(s % 13),
				Start:    time.Duration(s%1000) * time.Second,
				Duration: time.Minute,
			}
			t1.Append(r)
		}
		// Insert in reverse into t2.
		for i := len(t1.Records) - 1; i >= 0; i-- {
			t2.Append(t1.Records[i])
		}
		t1.Sort()
		t2.Sort()
		if len(t1.Records) != len(t2.Records) {
			return false
		}
		for i := range t1.Records {
			if t1.Records[i] != t2.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
