package cache

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
)

// Hand-written gob. The pipeline's blob and the frequency scorer's are
// written and read here without reflection, byte for byte as
// gob.NewEncoder(w).Encode writes them (encoding/gob documents the
// format). A blob from a fresh encoder is
//
//	typeDefs  uint(len(msg))  msg
//	msg = int(typeID) fields 0
//
// typeDefs are the type-definition messages the encoder sends before
// its first value. They and the type's id are fixed once init pins gob's
// type numbers (state.go), so they are captured from gob then (gobBlob)
// and copied. A struct's fields follow as (uint delta to the field's
// number, value) pairs, zero-valued fields left out, and end with a 0.
// An integer of a signed type is int-encoded, a slice is its count and
// elements, a []byte its count and bytes; an unsigned integer below
// 0x80 is that byte, any other is its byte count, negated, then its
// bytes big-endian.

// gobBlob is one wire type's framing, captured from gob.
type gobBlob struct {
	defs []byte // type-definition messages
	id   int64  // the value message's type id
}

// captureBlob encodes the zero value of the struct type v points to
// twice on one encoder: the second time gob writes the value message
// alone (its length, the type id and a bare terminator), so what
// precedes it the first time is the type definitions.
func captureBlob(v any) gobBlob {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	first := buf.Len()
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	msg := buf.Bytes()[first:]
	r := gobReader{b: msg}
	r.uint()
	id := r.int()
	if r.uint() != 0 || r.end() != nil || id <= 0 {
		panic("cache: gob's value message is not a zero struct's")
	}
	return gobBlob{defs: bytes.Clone(buf.Bytes()[:first-len(msg)]), id: id}
}

// size returns the blob's size when its value message takes body bytes.
func (g *gobBlob) size(body int) int { return len(g.defs) + gobUintLen(uint64(body)) + body }

// msgBody returns the body of a value message whose fields take fields
// bytes: the type id, the fields and the terminator.
func (g *gobBlob) msgBody(fields int) int { return gobIntLen(g.id) + fields + 1 }

// begin appends the type definitions, the length of a value message of
// body bytes and its type id; the caller appends the fields and the 0.
func (g *gobBlob) begin(b []byte, body int) []byte {
	b = append(b, g.defs...)
	b = appendGobUint(b, uint64(body))
	return appendGobInt(b, g.id)
}

// open checks a blob's type definitions, message length and type id,
// and returns a reader at its value's first field. The message must be
// all that is left.
func (g *gobBlob) open(data []byte) (gobReader, error) {
	if !bytes.HasPrefix(data, g.defs) {
		return gobReader{}, errors.New("gob blob does not start with its type's definitions")
	}
	r := gobReader{b: data, off: len(g.defs)}
	if n := r.uint(); r.err == nil && n != uint64(r.left()) {
		return gobReader{}, fmt.Errorf("gob message of %d bytes in %d", n, r.left())
	}
	if id := r.int(); r.err == nil && id != g.id {
		return gobReader{}, fmt.Errorf("gob value of type %d, want %d", id, g.id)
	}
	return r, r.err
}

// gobUintLen returns the size of u's encoding.
func gobUintLen(u uint64) int {
	if u < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(u)+7)>>3
}

// gobZigzag maps a signed integer onto the unsigned one gob writes.
func gobZigzag(i int64) uint64 {
	if i < 0 {
		return uint64(^i)<<1 | 1
	}
	return uint64(i) << 1
}

func gobIntLen(i int64) int { return gobUintLen(gobZigzag(i)) }

func appendGobUint(b []byte, u uint64) []byte {
	if u < 0x80 {
		return append(b, byte(u))
	}
	n := (bits.Len64(u) + 7) >> 3
	b = append(b, byte(-n))
	for s := 8 * (n - 1); s >= 0; s -= 8 {
		b = append(b, byte(u>>s))
	}
	return b
}

func appendGobInt(b []byte, i int64) []byte { return appendGobUint(b, gobZigzag(i)) }

// appendGobField appends the delta from a struct's field *last to
// field (a struct here has at most four fields, so one byte).
func appendGobField(b []byte, last *int, field int) []byte {
	b = append(b, byte(field-*last))
	*last = field
	return b
}

// Two wire structs here are a pair of integer fields: pipelineEntry
// (Program, Score) and frequencyAccessState (Program, At).

// gobPairLen returns the size of a pair struct's encoding.
func gobPairLen(x, y int64) int {
	n := 1 // terminator
	if x != 0 {
		n += 1 + gobIntLen(x)
	}
	if y != 0 {
		n += 1 + gobIntLen(y)
	}
	return n
}

func appendGobPair(b []byte, x, y int64) []byte {
	if x != 0 {
		b = appendGobInt(append(b, 1), x)
	}
	if y != 0 {
		if x != 0 {
			b = append(b, 1)
		} else {
			b = append(b, 2)
		}
		b = appendGobInt(b, y)
	}
	return append(b, 0)
}

// gobReader reads a value message. The first error sticks and skips
// the rest, so every later read returns zero and every struct loop
// ends.
type gobReader struct {
	b   []byte
	off int
	err error
}

func (r *gobReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

func (r *gobReader) left() int { return len(r.b) - r.off }

// end reports the first error, or bytes left after the value.
func (r *gobReader) end() error {
	if r.err == nil && r.left() != 0 {
		return fmt.Errorf("%d bytes after the gob value", r.left())
	}
	return r.err
}

func (r *gobReader) uint() uint64 {
	if r.off >= len(r.b) {
		r.fail(errors.New("gob message ends inside a value"))
		return 0
	}
	c := r.b[r.off]
	r.off++
	if c < 0x80 {
		return uint64(c)
	}
	n := -int(int8(c))
	if n > 8 || n > r.left() {
		r.fail(fmt.Errorf("gob unsigned integer of %d bytes in %d", n, r.left()))
		return 0
	}
	var u uint64
	for _, c := range r.b[r.off : r.off+n] {
		u = u<<8 | uint64(c)
	}
	r.off += n
	return u
}

func (r *gobReader) int() int64 {
	u := r.uint()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// int32 reads an int-encoded value of a 32-bit field, which gob rejects
// when it does not fit.
func (r *gobReader) int32() int32 {
	v := r.int()
	if int64(int32(v)) != v {
		r.fail(fmt.Errorf("gob value %d overflows 32 bits", v))
	}
	return int32(v)
}

// field reads the delta to the next field of a struct of fields fields,
// advancing *last to its number; it is false at the terminator.
func (r *gobReader) field(last *int, fields int) bool {
	d := r.uint()
	if d == 0 {
		return false
	}
	if d > uint64(fields-1-*last) {
		r.fail(fmt.Errorf("gob field %d+%d of a %d-field struct", *last, d, fields))
		return false
	}
	*last += int(d)
	return true
}

// count reads a slice's length; every element takes at least a byte.
func (r *gobReader) count() int {
	n := r.uint()
	if n > uint64(r.left()) {
		r.fail(fmt.Errorf("gob slice of %d elements in %d bytes", n, r.left()))
		return 0
	}
	return int(n)
}

// bytes reads a []byte; it returns a slice of the message.
func (r *gobReader) bytes() []byte {
	n := r.count()
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// pair reads a pair struct whose first field is 32 bits wide.
func (r *gobReader) pair() (x int32, y int64) {
	for last := -1; r.field(&last, 2); {
		if last == 0 {
			x = r.int32()
		} else {
			y = r.int()
		}
	}
	return x, y
}
