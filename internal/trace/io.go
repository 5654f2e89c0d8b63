package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// CSV layout: header then one row per record. Times are integer seconds
// from the trace epoch, matching how the PowerInfo records are described
// (user, program, session length). The offset column records where inside
// the program playback started; readers also accept the legacy 4-column
// layout without it.
const (
	csvHeaderLine       = "user,program,start_sec,duration_sec,offset_sec"
	csvHeaderLineLegacy = "user,program,start_sec,duration_sec"
)

// WriteCSV writes the trace in the canonical CSV layout. Program lengths
// are not part of the CSV format; persist them with the gob format or
// re-infer them with InferProgramLengths.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "program", "start_sec", "duration_sec", "offset_sec"}); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	row := make([]string, 5)
	for i, r := range t.Records {
		row[0] = strconv.FormatInt(int64(r.User), 10)
		row[1] = strconv.FormatInt(int64(r.Program), 10)
		row[2] = strconv.FormatInt(int64(r.Start/time.Second), 10)
		row[3] = strconv.FormatInt(int64(r.Duration/time.Second), 10)
		row[4] = strconv.FormatInt(int64(r.Offset/time.Second), 10)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write csv record %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses a trace in the canonical CSV layout (current or legacy
// 4-column form).
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv header: %w", err)
	}
	got := strings.Join(header, ",")
	if got != csvHeaderLine && got != csvHeaderLineLegacy {
		return nil, fmt.Errorf("trace: unexpected csv header %q, want %q", got, csvHeaderLine)
	}
	cr.FieldsPerRecord = len(header)

	t := New()
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read csv line %d: %w", line, err)
		}
		rec, err := parseCSVRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line, err)
		}
		t.Append(rec)
	}
	t.Sort()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseCSVRow(row []string) (Record, error) {
	user, err := strconv.ParseInt(row[0], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("user: %w", err)
	}
	prog, err := strconv.ParseInt(row[1], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("program: %w", err)
	}
	start, err := parseSeconds("start_sec", row[2])
	if err != nil {
		return Record{}, err
	}
	dur, err := parseSeconds("duration_sec", row[3])
	if err != nil {
		return Record{}, err
	}
	var offset time.Duration
	if len(row) > 4 {
		if offset, err = parseSeconds("offset_sec", row[4]); err != nil {
			return Record{}, err
		}
	}
	rec := Record{
		User:     UserID(user),
		Program:  ProgramID(prog),
		Start:    start,
		Duration: dur,
		Offset:   offset,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// parseSeconds parses a column of whole seconds as a duration, which
// must not overflow: time.Duration counts nanoseconds in an int64.
func parseSeconds(column, s string) (time.Duration, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", column, err)
	}
	if v > math.MaxInt64/int64(time.Second) || v < math.MinInt64/int64(time.Second) {
		return 0, fmt.Errorf("%s: %d seconds overflows a duration", column, v)
	}
	return time.Duration(v) * time.Second, nil
}

// gobTrace is the wire form for the gob format; it exists so the exported
// Trace type can evolve without breaking stored files.
type gobTrace struct {
	Records        []Record
	ProgramLengths map[ProgramID]time.Duration
}

// WriteGob writes the full trace, including program lengths, in gob form.
func (t *Trace) WriteGob(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(gobTrace{Records: t.Records, ProgramLengths: t.ProgramLengths}); err != nil {
		return fmt.Errorf("trace: encode gob: %w", err)
	}
	return nil
}

// ReadGob reads a gob-form trace.
func ReadGob(r io.Reader) (*Trace, error) {
	// gob sizes a nil map by the count the input claims, so a few bytes
	// could claim gigabytes; into a non-nil map it adds entries only as
	// the input holds them.
	gt := gobTrace{ProgramLengths: make(map[ProgramID]time.Duration)}
	if err := gob.NewDecoder(r).Decode(&gt); err != nil {
		return nil, fmt.Errorf("trace: decode gob: %w", err)
	}
	t := &Trace{Records: gt.Records, ProgramLengths: gt.ProgramLengths}
	t.Sort()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SaveFile writes the trace to path; format is chosen by extension
// (".csv" or ".gob").
func (t *Trace) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close %s: %w", path, cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	if hasSuffix(path, ".csv") {
		err = t.WriteCSV(bw)
	} else {
		err = t.WriteGob(bw)
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a trace from path; format is chosen by extension.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if hasSuffix(path, ".csv") {
		return ReadCSV(br)
	}
	return ReadGob(br)
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
