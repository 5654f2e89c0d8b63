package serve

import (
	"bytes"
	"fmt"
	"sync"
	"time"
	"unicode/utf8"

	"cablevod/internal/trace"
)

// POST /submit bodies are decoded by hand rather than by encoding/json:
// reflection over []trace.Record was the daemon's largest cost after the
// engine itself. decodeSubmit accepts exactly the documents
//
//	json.NewDecoder(body).DisallowUnknownFields().Decode(&submitRequest{})
//
// accepts, with the records it would produce, except that it rejects a
// second top-level "records" key and any record that fails
// trace.Record.Validate. FuzzDecodeSubmit holds it to that contract.

// recordFields lists trace.Record's fields in declaration order with
// their integer widths in bits; TestDecodeSubmitFieldList keeps it in
// step with the struct.
var recordFields = [...]struct {
	name string
	bits uint
}{
	{"User", 32},
	{"Program", 32},
	{"Start", 64},
	{"Duration", 64},
	{"Offset", 64},
}

// setField stores v into the field recordFields[f] names.
func setField(r *trace.Record, f int, v int64) {
	switch f {
	case 0:
		r.User = trace.UserID(v)
	case 1:
		r.Program = trace.ProgramID(v)
	case 2:
		r.Start = time.Duration(v)
	case 3:
		r.Duration = time.Duration(v)
	case 4:
		r.Offset = time.Duration(v)
	}
}

// submitBuf is the working memory of one POST /submit: the body as read
// and the records decoded from it. Shard mailboxes copy records by
// value, so both are free again once SubmitBatch returns.
type submitBuf struct {
	body bytes.Buffer
	recs []trace.Record
}

// submitBufs pools submitBufs across requests.
var submitBufs = sync.Pool{New: func() any { return new(submitBuf) }}

// maxPooledSubmit caps the body bytes and the record bytes a pooled
// submitBuf may keep; a rare larger batch leaves its buffers to the
// garbage collector.
const maxPooledSubmit = 4 << 20

// release returns b to the pool unless a large batch grew it past
// maxPooledSubmit.
func (b *submitBuf) release() {
	const recordBytes = 32 // two int32 and three int64 fields
	if b.body.Cap() > maxPooledSubmit || cap(b.recs)*recordBytes > maxPooledSubmit {
		return
	}
	b.body.Reset()
	submitBufs.Put(b)
}

// submitDecoder is a cursor over one body.
type submitDecoder struct {
	data []byte
	off  int
	key  [32]byte // unescaped object key; longer keys match no field
}

// decodeSubmit parses a POST /submit body into recs[:0], growing it
// only when the batch outgrows it, and validates each record as its
// object closes. Bytes after the top-level value are ignored.
func decodeSubmit(data []byte, recs []trace.Record) ([]trace.Record, error) {
	d := submitDecoder{data: data}
	recs = recs[:0]
	switch d.next() {
	case 'n':
		return recs, d.null()
	case '{':
		d.off++
	default:
		return recs, d.syntax("an object")
	}
	if d.next() == '}' {
		return recs, nil
	}
	for seen := false; ; {
		key, err := d.objectKey()
		if err != nil {
			return recs, err
		}
		if !bytes.EqualFold(key, []byte("records")) {
			return recs, fmt.Errorf("unknown field %q", string(key))
		}
		if seen {
			return recs, fmt.Errorf("duplicate field %q", string(key))
		}
		seen = true
		if recs, err = d.records(recs); err != nil {
			return recs, err
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			return recs, nil
		default:
			return recs, d.syntax("',' or '}'")
		}
	}
}

// records parses the "records" array (or null) onto recs.
func (d *submitDecoder) records(recs []trace.Record) ([]trace.Record, error) {
	switch d.next() {
	case 'n':
		return recs, d.null()
	case '[':
		d.off++
	default:
		return recs, d.syntax("an array")
	}
	if d.next() == ']' {
		d.off++
		return recs, nil
	}
	for {
		var r trace.Record
		switch d.next() {
		case 'n':
			// A null element leaves its record zero, as encoding/json
			// does.
			if err := d.null(); err != nil {
				return recs, err
			}
		case '{':
			if err := d.record(&r); err != nil {
				return recs, err
			}
		default:
			return recs, d.syntax("a record")
		}
		if err := r.Validate(); err != nil {
			return recs, fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs = append(recs, r)
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.off++
			return recs, nil
		default:
			return recs, d.syntax("',' or ']'")
		}
	}
}

// record parses one record object into r. A null member leaves its
// field unchanged and a repeated member overwrites, as in encoding/json.
func (d *submitDecoder) record(r *trace.Record) error {
	d.off++ // '{'
	if d.next() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.objectKey()
		if err != nil {
			return err
		}
		f := -1
		for i := range recordFields {
			if bytes.EqualFold(key, []byte(recordFields[i].name)) {
				f = i
				break
			}
		}
		if f < 0 {
			return fmt.Errorf("unknown field %q", string(key))
		}
		if d.next() == 'n' {
			if err := d.null(); err != nil {
				return err
			}
		} else {
			v, err := d.integer(recordFields[f].bits)
			if err != nil {
				return err
			}
			setField(r, f, v)
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.syntax("',' or '}'")
		}
	}
}

// objectKey parses an object key and the colon after it. The key is
// returned unescaped, in the input when it has no escapes and in d.key
// otherwise; a key too long for d.key is reported as unknown, since no
// field name is that long.
func (d *submitDecoder) objectKey() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.syntax("a field name")
	}
	d.off++
	start := d.off
	for d.off < len(d.data) && d.data[d.off] != '"' && d.data[d.off] != '\\' {
		if d.data[d.off] < ' ' {
			return nil, d.syntax("a string character")
		}
		d.off++
	}
	key := d.data[start:d.off]
	if d.off < len(d.data) && d.data[d.off] == '\\' {
		var err error
		if key, err = d.unescape(key); err != nil {
			return nil, err
		}
	}
	if d.off >= len(d.data) {
		return nil, d.syntax("'\"'")
	}
	d.off++ // closing quote
	if d.next() != ':' {
		return nil, d.syntax("':'")
	}
	d.off++
	return key, nil
}

// unescape copies the key read so far into d.key and decodes the rest
// of it up to the closing quote. Only \u escapes can spell a field
// name; any other escape stands for a character no field name has, so
// it ends the key as unknown, as does a key too long for d.key.
// Surrogate halves become U+FFFD, which no field name has either.
func (d *submitDecoder) unescape(prefix []byte) ([]byte, error) {
	if len(prefix) > len(d.key) {
		return nil, fmt.Errorf("unknown field %q", string(prefix))
	}
	out := append(d.key[:0], prefix...)
	for d.off < len(d.data) && d.data[d.off] != '"' {
		c := d.data[d.off]
		switch {
		case len(out)+utf8.UTFMax > len(d.key):
			return nil, fmt.Errorf("unknown field %q", string(out))
		case c < ' ':
			return nil, d.syntax("a string character")
		case c != '\\':
			out = append(out, c)
			d.off++
		case d.off+1 < len(d.data) && d.data[d.off+1] == 'u':
			d.off += 2
			r, ok := d.hex4()
			if !ok {
				return nil, d.syntax("four hex digits")
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, d.syntax("a field name")
		}
	}
	return out, nil
}

// hex4 reads the four hex digits of a \u escape.
func (d *submitDecoder) hex4() (rune, bool) {
	if len(d.data)-d.off < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.data[d.off : d.off+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.off += 4
	return r, true
}

// integer parses a JSON integer that must fit in a signed integer of the
// given width. Fractions and exponents are errors, as encoding/json
// reports them for integer fields; the caller rejects them when it finds
// '.' or 'e' where it wants ',' or '}'.
func (d *submitDecoder) integer(bits uint) (int64, error) {
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	if d.off >= len(d.data) || d.data[d.off] < '0' || d.data[d.off] > '9' {
		return 0, d.syntax("a number")
	}
	var u uint64
	limit := uint64(1) << (bits - 1) // magnitude of the most negative value
	if d.data[d.off] == '0' {
		d.off++ // JSON allows no digits after a leading zero
	} else {
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			if u > limit/10 {
				return 0, d.overflow(bits)
			}
			if u = u*10 + uint64(d.data[d.off]-'0'); u > limit {
				return 0, d.overflow(bits)
			}
			d.off++
		}
	}
	if neg {
		return -int64(u), nil
	}
	if u == limit {
		return 0, d.overflow(bits)
	}
	return int64(u), nil
}

// overflow reports an integer too large for its bits-wide field.
func (d *submitDecoder) overflow(bits uint) error {
	return fmt.Errorf("offset %d: number overflows a %d-bit integer", d.off, bits)
}

// null consumes the literal null.
func (d *submitDecoder) null() error {
	if !bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		return d.syntax("null")
	}
	d.off += 4
	return nil
}

// next skips whitespace and returns the byte there, or 0 at the end of
// the data (a NUL byte is as invalid as the end at every position).
func (d *submitDecoder) next() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// syntax reports that the body holds something other than want at the
// cursor.
func (d *submitDecoder) syntax(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("offset %d: want %s, found %q", d.off, want, d.data[d.off])
}
