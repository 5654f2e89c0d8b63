package trace

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	tr := mkTrace(
		rec(1, 10, 0, 8),
		rec(2, 10, 5, 60),
		rec(3, 11, 12, 3),
	)
	tr.ProgramLengths[10] = 60 * time.Minute
	tr.ProgramLengths[11] = 45 * time.Minute
	return tr
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), tr.Len())
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c,d\n1,2,3,4\n")); err == nil {
		t.Error("expected error for bad header")
	}
}

func TestCSVBadRows(t *testing.T) {
	header := "user,program,start_sec,duration_sec\n"
	tests := []struct {
		name string
		row  string
	}{
		{"non-numeric user", "x,1,0,60"},
		{"non-numeric program", "1,x,0,60"},
		{"non-numeric start", "1,1,x,60"},
		{"non-numeric duration", "1,1,0,x"},
		{"zero duration", "1,1,0,0"},
		{"negative start", "1,1,-5,60"},
		{"too few fields", "1,1,0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(header + tt.row + "\n")); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

func TestGobRoundTripKeepsLengths(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip lost records")
	}
	if got.ProgramLengths[10] != 60*time.Minute || got.ProgramLengths[11] != 45*time.Minute {
		t.Errorf("program lengths lost: %v", got.ProgramLengths)
	}
}

func TestSaveLoadFileCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	tr := sampleTrace()
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("loaded %d records, want %d", got.Len(), tr.Len())
	}
}

func TestSaveLoadFileGob(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.gob")
	tr := sampleTrace()
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramLengths[10] != 60*time.Minute {
		t.Error("gob file lost program lengths")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/trace.csv"); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestCSVRejectsOverflowingSeconds: a seconds column whose nanoseconds
// overflow int64 is an error naming the line and the column, not a
// wrapped duration (18446744074 s used to load as 290.448384 ms).
func TestCSVRejectsOverflowingSeconds(t *testing.T) {
	header := "user,program,start_sec,duration_sec,offset_sec\n"
	columns := []struct {
		name string
		row  func(v string) string
	}{
		{"start_sec", func(v string) string { return "1,2," + v + ",60,0" }},
		{"duration_sec", func(v string) string { return "1,2,0," + v + ",0" }},
		{"offset_sec", func(v string) string { return "1,2,0,60," + v }},
	}
	for _, col := range columns {
		for _, v := range []string{"18446744074", "9223372037", "-9223372037", "-18446744073"} {
			_, err := ReadCSV(strings.NewReader(header + "1,2,0,60,0\n" + col.row(v) + "\n"))
			if err == nil {
				t.Errorf("%s = %s loaded", col.name, v)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, col.name) {
				t.Errorf("%s = %s: error %q does not name line 3 and the column", col.name, v, msg)
			}
		}
	}
	// A start and a duration that each fit but whose sum, the session's
	// end, does not is an error naming the line, the start and the
	// duration.
	_, err := ReadCSV(strings.NewReader(header + "1,2,0,60,0\n1,2,9223372036,60,0\n"))
	if err == nil {
		t.Error("a session ending past the int64 range loaded")
	} else if msg := err.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, "start") || !strings.Contains(msg, "duration") {
		t.Errorf("overflowing end: error %q does not name line 3, the start and the duration", msg)
	}
	// The largest whole second a duration holds still loads.
	tr, err := ReadCSV(strings.NewReader(header + "1,2,0,9223372036,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Records[0].Duration, 9223372036*time.Second; got != want {
		t.Errorf("duration %v, want %v", got, want)
	}
}

// TestReadGobBoundsHostileMapCount: a gob trace whose program-length
// map claims 4M entries in a few bytes fails without gob allocating a
// map of that size first.
func TestReadGobBoundsHostileMapCount(t *testing.T) {
	// Encoding the zero value twice on one encoder gives its value
	// message alone the second time; what precedes it the first time
	// is the type definitions.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(gobTrace{}); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(gobTrace{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	zero := data[first:] // length, type id, terminator
	typeID := zero[1 : len(zero)-1]
	// Field 1 (ProgramLengths), a count of 1<<22, one entry (5: 7ns).
	body := append(append([]byte{}, typeID...), 0x02, 0xfd, 0x40, 0x00, 0x00, 0x0a, 0x0e, 0x00)
	hostile := append(append(append([]byte{}, data[:first-len(zero)]...), byte(len(body))), body...)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := ReadGob(bytes.NewReader(hostile)); err == nil {
		t.Fatal("a trace claiming 4M program lengths in one entry loaded")
	}
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc > 8<<20 {
		t.Errorf("reading %d hostile bytes allocated %d MiB", len(hostile), alloc>>20)
	}
}
