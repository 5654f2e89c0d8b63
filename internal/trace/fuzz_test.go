package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"cablevod/internal/synth"
	"cablevod/internal/trace"
)

// FuzzReadTrace feeds each input to both trace loaders. Neither may
// panic; a trace either accepts is sorted and holds only valid records;
// and a CSV trace written back with WriteCSV reads back equal. Since
// both loaders sort what they read, this fuzzes Trace.Sort too.
func FuzzReadTrace(f *testing.F) {
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Programs, cfg.Days = 40, 12, 1
	tr, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	tr.Records = tr.Records[:min(len(tr.Records), 25)]
	var csv, gob bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteGob(&gob); err != nil {
		f.Fatal(err)
	}
	f.Add(csv.Bytes())
	f.Add(gob.Bytes())
	f.Add([]byte("user,program,start_sec,duration_sec\n3,1,0,60\n1,2,3600,600\n1,2,3600,30\n"))
	for _, row := range []string{"1,2,18446744074,60,0", "1,2,0,18446744074,0", "1,2,0,60,-18446744073", "1,2,9223372036,60,0"} {
		f.Add([]byte("user,program,start_sec,duration_sec,offset_sec\n" + row + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := trace.ReadCSV(bytes.NewReader(data)); err == nil {
			checkLoaded(t, "csv", tr)
			var buf bytes.Buffer
			if err := tr.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := trace.ReadCSV(&buf)
			if err != nil {
				t.Fatalf("an accepted csv trace, written back, fails to read: %v", err)
			}
			if !slices.Equal(back.Records, tr.Records) {
				t.Fatal("an accepted csv trace, written back, reads back different records")
			}
		}
		if tr, err := trace.ReadGob(bytes.NewReader(data)); err == nil {
			checkLoaded(t, "gob", tr)
		}
	})
}

func checkLoaded(t *testing.T, form string, tr *trace.Trace) {
	t.Helper()
	if !tr.Sorted() {
		t.Fatalf("%s: an accepted trace is not sorted", form)
	}
	for i, r := range tr.Records {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: accepted record %d: %v", form, i, err)
		}
	}
}
