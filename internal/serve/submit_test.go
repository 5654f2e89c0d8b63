package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cablevod/internal/synth"
	"cablevod/internal/trace"
)

// decodeJSON is the reference decoder: what handleSubmit ran before
// decodeSubmit.
func decodeJSON(data []byte) ([]trace.Record, error) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req.Records, err
}

// recordsKeys counts the top-level keys of data that name the records
// field, walking it with json.Decoder.Token; data the walk cannot read
// counts what it read so far.
func recordsKeys(data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, ok := tok.(string); ok && strings.EqualFold(key, "records") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return n
		}
	}
	return n
}

// realBody is a /submit body holding the first n records of the test
// workload, encoded as clients encode it.
func realBody(tb testing.TB, n int) []byte {
	tb.Helper()
	tr, err := synth.Generate(synth.TestConfig())
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(submitRequest{Records: tr.Records[:n]})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// submitCases are hand-written bodies with whether decodeSubmit accepts
// them; FuzzDecodeSubmit also checks each against encoding/json.
var submitCases = []struct {
	name string
	body string
	ok   bool
}{
	{"folded names", `{"RECORDS":[{"uSeR":1,"program":2,"START":3,"duration":4,"oFFSET":5}]}`, true},
	{"long s folds to s", `{"recordſ":[{"Uſer":1,"ſtart":2,"Duration":3}]}`, true},
	{"escaped keys", `{"\u0072ecords":[{"\u0055ser":7,"Dur\u0061tion":1,"\u017ftart":2}]}`, true},
	{"escaped unknown key", `{"records":[{"Duration":1,"\/User":1}]}`, false},
	{"escaped quote in key", `{"records":[{"Dur\"ation":1}]}`, false},
	{"escaped control in key", `{"records":[{"Du\nration":1}]}`, false},
	{"raw control in key", "{\"records\":[{\"Du\x01ration\":1}]}", false},
	{"bad escape in key", `{"records":[{"Du\xration":1}]}`, false},
	{"bad hex in key", `{"records":[{"\u00zzUser":1}]}`, false},
	{"surrogates in key", `{"records":[{"User\ud800":1,"Duration\ud83d\ude00":1}]}`, false},
	{"long unknown key", `{"records":[{"` + strings.Repeat(`U`, 40) + `":1}]}`, false},
	{"null member keeps field", `{"records":[{"Duration":5,"Duration":null,"User":null}]}`, true},
	{"repeated member overwrites", `{"records":[{"Duration":-1,"Duration":1}]}`, true},
	{"null element is a zero record", `{"records":[null]}`, false},
	{"minus zero", `{"records":[{"User":-0,"Start":-0,"Duration":1}]}`, true},
	{"fraction", `{"records":[{"Duration":1.0}]}`, false},
	{"exponent", `{"records":[{"Duration":1e3}]}`, false},
	{"int32 max", `{"records":[{"User":2147483647,"Duration":1}]}`, true},
	{"int32 overflow", `{"records":[{"User":2147483648,"Duration":1}]}`, false},
	{"int64 max", `{"records":[{"Duration":9223372036854775807}]}`, true},
	{"end overflows", `{"records":[{"Start":9223372036854775807,"Duration":1}]}`, false},
	{"int64 overflow", `{"records":[{"Start":9223372036854775808,"Duration":1}]}`, false},
	{"long number", `{"records":[{"Duration":123456789012345678901234567890}]}`, false},
	{"leading zero", `{"records":[{"Duration":01}]}`, false},
	{"lone minus", `{"records":[{"Duration":-}]}`, false},
	{"string value", `{"records":[{"Duration":"1"}]}`, false},
	{"bool value", `{"records":[{"Duration":true}]}`, false},
	{"byte order mark", "\xef\xbb\xbf" + `{"records":[{"Duration":1}]}`, false},
	{"unknown field", `{"records":[{"Bogus":1}]}`, false},
	{"unknown top-level field", `{"records":[],"extra":1}`, false},
	{"truncated", `{"records":[{"Duration":1}`, false},
	{"truncated key", `{"records":[{"Dura`, false},
	{"trailing comma", `{"records":[{"Duration":1},]}`, false},
	{"whitespace everywhere", " \t\r\n{ \t\r\n\"records\" \t\r\n: \t\r\n[ \t\r\n{ \t\r\n\"Duration\" \t\r\n: \t\r\n1 \t\r\n, \t\r\n\"User\" \t\r\n: \t\r\n2 \t\r\n} \t\r\n] \t\r\n} \t\r\n", true},
	{"bytes after the value", `{"records":[{"Duration":1}]} trailing {"records":`, true},
	{"bytes after null", `null{`, true},
	{"duplicate records key", `{"records":[{"Duration":1}],"Records":[{"User":2}]}`, false},
	{"top-level null", `null`, true},
	{"top-level array", `[]`, false},
	{"empty object", `{}`, true},
	{"records null", `{"records":null}`, true},
	{"empty records", `{"records":[]}`, true},
	{"invalid record", `{"records":[{"Duration":0}]}`, false},
	{"empty record", `{"records":[{}]}`, false},
	{"empty body", ``, false},
}

// FuzzDecodeSubmit holds decodeSubmit to encoding/json: it accepts a
// body exactly when encoding/json does, the body has at most one
// top-level records key and every record validates, and then the
// records are identical.
func FuzzDecodeSubmit(f *testing.F) {
	for _, c := range submitCases {
		if _, err := decodeSubmit([]byte(c.body), nil); (err == nil) != c.ok {
			f.Errorf("%s: decodeSubmit err = %v, want accepted = %v", c.name, err, c.ok)
		}
		f.Add([]byte(c.body))
	}
	f.Add(realBody(f, 1000))
	// One pooled buffer serves every input, so state left over from an
	// earlier input shows up as a mismatch.
	buf := submitBufs.Get().(*submitBuf)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeJSON(data)
		got, err := decodeSubmit(data, buf.recs)
		buf.recs = got
		valid := !slices.ContainsFunc(want, func(r trace.Record) bool { return r.Validate() != nil })
		accept := wantErr == nil && recordsKeys(data) <= 1 && valid
		if (err == nil) != accept {
			t.Fatalf("decodeSubmit err = %v, want accepted = %v (encoding/json: %v)\nbody %q", err, accept, wantErr, data)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("records differ\n got %v\nwant %v\nbody %q", got, want, data)
		}
	})
}

// TestDecodeSubmitHostileBodies: a cap-sized flood of records that fail
// validation fails at its first element instead of decoding millions of
// records first.
func TestDecodeSubmitHostileBodies(t *testing.T) {
	const head, tail = `{"records":[`, `]}`
	for _, elem := range []string{"null", "{}"} {
		n := (maxSubmitBody - len(head) - len(elem) - len(tail)) / (len(elem) + 1)
		body := slices.Concat([]byte(head), bytes.Repeat([]byte(elem+","), n), []byte(elem+tail))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeSubmit(body, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s flood: decoded without error", elem)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s flood: decode allocated %d bytes, want under 1 MiB", elem, alloc)
		}
	}
}

// TestDecodeSubmitFieldList: the decoder knows every field of
// trace.Record by name, width and position, so a new field fails here
// instead of being rejected as unknown on the wire.
func TestDecodeSubmitFieldList(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeFor[trace.Record]())
	if len(fields) != len(recordFields) {
		t.Fatalf("trace.Record has %d fields, the decoder knows %d", len(fields), len(recordFields))
	}
	for i, f := range fields {
		want := recordFields[i]
		if f.Name != want.name || f.Type.Kind() < reflect.Int || f.Type.Kind() > reflect.Int64 || uint(f.Type.Bits()) != want.bits {
			t.Errorf("field %d is %s %s, the decoder has %s int%d", i, f.Name, f.Type, want.name, want.bits)
			continue
		}
		var r trace.Record
		setField(&r, i, 7)
		v := reflect.ValueOf(r)
		for j := range fields {
			wantV := int64(0)
			if j == i {
				wantV = 7
			}
			if got := v.Field(j).Int(); got != wantV {
				t.Errorf("setField(%s) left %s = %d, want %d", want.name, fields[j].Name, got, wantV)
			}
		}
	}
}

// TestDecodeSubmitAllocs: decoding into a warmed buffer allocates
// nothing.
func TestDecodeSubmitAllocs(t *testing.T) {
	body := realBody(t, 1000)
	recs, err := decodeSubmit(body, nil)
	if err != nil || len(recs) != 1000 {
		t.Fatalf("decodeSubmit = %d records, %v", len(recs), err)
	}
	if allocs := testing.AllocsPerRun(20, func() { recs, err = decodeSubmit(body, recs) }); allocs != 0 {
		t.Errorf("decodeSubmit allocated %v times per 1,000-record body, want 0", allocs)
	}
}

func BenchmarkDecodeSubmit(b *testing.B) {
	body := realBody(b, 1000)
	recs, err := decodeSubmit(body, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if recs, err = decodeSubmit(body, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSubmitJSON is the encoding/json reference for
// BenchmarkDecodeSubmit.
func BenchmarkDecodeSubmitJSON(b *testing.B) {
	body := realBody(b, 1000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeJSON(body); err != nil {
			b.Fatal(err)
		}
	}
}
