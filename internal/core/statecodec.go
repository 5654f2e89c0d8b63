package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// The state file's field codecs (the layout is in snapshotio.go). Each
// state type has an encoder method writing its fields in declaration
// order and a decoder method reading them back, side by side;
// TestStateCodecFieldLists fails when a type gains a field these do not
// carry.

// encoder appends one section's payload.
type encoder struct {
	b    []byte
	keys []int64 // scratch for sorting map keys
}

// decoder reads one section's payload from offset off. The first error
// sticks and skips the rest of the payload, so every later read returns
// zero and every later count nil, and the loops over counts end.
type decoder struct {
	b   []byte
	off int
	err error
}

// Minimum encoded sizes of the elements the decoder allocates by count:
// one byte per field.
const (
	recordBytes     = 5 // trace.Record
	disruptionBytes = 5
	eventBytes      = 6
	sessionBytes    = recordBytes + 1
	peerBytes       = 3
	entryBytes      = 2
	placementBytes  = 6 // besides its Slots rows
	mapEntryBytes   = 2
)

func (e *encoder) head(st *SystemState, shards int) {
	e.int(int64(st.Version))
	e.config(&st.Config)
	putRows(e, st.Users, func(e *encoder, u *trace.UserID) { e.int(int64(*u)) })
	putMap(e, st.Lengths)
	putRows(e, st.Future, (*encoder).record)
	e.int(int64(st.Submitted))
	e.int(int64(st.LastStart))
	putRows(e, st.Disruptions, (*encoder).disruption)
	e.uint(uint64(shards))
}

// head decodes the head section into st and returns its shard count.
// Only the schema this build reads has this layout, so any other
// Version fails at once.
func (d *decoder) head(st *SystemState) uint64 {
	st.Version = int(d.int())
	if st.Version != SnapshotVersion {
		d.fail(fmt.Errorf("state schema version %d, this build reads %d", st.Version, SnapshotVersion))
	}
	d.config(&st.Config)
	st.Users = getRows(d, 1, func(d *decoder, u *trace.UserID) { *u = trace.UserID(d.int32()) })
	st.Lengths = getMap[trace.ProgramID, time.Duration](d)
	st.Future = getRows(d, recordBytes, (*decoder).record)
	st.Submitted = int(d.int())
	st.LastStart = time.Duration(d.int())
	st.Disruptions = getRows(d, disruptionBytes, (*decoder).disruption)
	return d.uint()
}

func (e *encoder) config(c *Config) {
	t := &c.Topology
	e.int(int64(t.NeighborhoodSize))
	e.int(int64(t.PerPeerStorage))
	e.int(int64(t.MaxStreamsPerPeer))
	e.int(int64(t.CoaxCapacity))
	e.uint(t.PlacementSeed)
	e.int(int64(c.Strategy))
	e.str(c.StrategyName)
	e.int(int64(c.LFUHistory))
	e.bool(c.NoHistory)
	e.int(int64(c.OracleLookahead))
	e.int(int64(c.GlobalLag))
	e.int(int64(c.WarmupDays))
	e.int(int64(c.Fill))
	e.int(int64(c.Replicas))
	e.int(int64(c.PrefixSegments))
	e.bool(c.DisableCacheFill)
	e.bool(c.DisablePeerStreamLimit)
	e.int(int64(c.Parallelism))
}

func (d *decoder) config(c *Config) {
	t := &c.Topology
	t.NeighborhoodSize = int(d.int())
	t.PerPeerStorage = units.ByteSize(d.int())
	t.MaxStreamsPerPeer = int(d.int())
	t.CoaxCapacity = units.BitRate(d.int())
	t.PlacementSeed = d.uint()
	c.Strategy = Strategy(d.int())
	c.StrategyName = d.str()
	c.LFUHistory = time.Duration(d.int())
	c.NoHistory = d.bool()
	c.OracleLookahead = time.Duration(d.int())
	c.GlobalLag = time.Duration(d.int())
	c.WarmupDays = int(d.int())
	c.Fill = FillMode(d.int())
	c.Replicas = int(d.int())
	c.PrefixSegments = int(d.int())
	c.DisableCacheFill = d.bool()
	c.DisablePeerStreamLimit = d.bool()
	c.Parallelism = int(d.int())
}

func (e *encoder) record(r *trace.Record) {
	e.int(int64(r.User))
	e.int(int64(r.Program))
	e.int(int64(r.Start))
	e.int(int64(r.Duration))
	e.int(int64(r.Offset))
}

func (d *decoder) record(r *trace.Record) {
	r.User = trace.UserID(d.int32())
	r.Program = trace.ProgramID(d.int32())
	r.Start = time.Duration(d.int())
	r.Duration = time.Duration(d.int())
	r.Offset = time.Duration(d.int())
}

func (e *encoder) disruption(x *Disruption) {
	e.int(int64(x.At))
	e.int(int64(x.Kind))
	e.int(int64(x.Neighborhood))
	putRows(e, x.PeerCapacities, func(e *encoder, c *units.ByteSize) { e.int(int64(*c)) })
	e.int(int64(x.CoaxCapacity))
}

func (d *decoder) disruption(x *Disruption) {
	x.At = time.Duration(d.int())
	x.Kind = DisruptionKind(d.int())
	x.Neighborhood = int(d.int())
	x.PeerCapacities = getRows(d, 1, func(d *decoder, c *units.ByteSize) { *c = units.ByteSize(d.int()) })
	x.CoaxCapacity = units.BitRate(d.int())
}

func (e *encoder) shard(sh *ShardState) {
	e.int(int64(sh.Neighborhood))
	e.int(int64(sh.QueueNow))
	e.uint(sh.NextSeq)
	e.uint(sh.Executed)
	putRows(e, sh.Events, (*encoder).event)
	putRows(e, sh.Sessions, (*encoder).session)
	e.int(int64(sh.Active))
	e.counters(&sh.Counters)
	putMap(e, sh.ServerBuckets)
	putMap(e, sh.DemandBuckets)
	putMap(e, sh.CoaxBuckets)
	e.int(sh.ObsHour)
	e.int(int64(sh.ObsServerRate))
	putRows(e, sh.Peers, (*encoder).peer)
	e.coax(&sh.Coax)
	e.index(&sh.Index)
}

func (d *decoder) shard(sh *ShardState) {
	sh.Neighborhood = int(d.int())
	sh.QueueNow = time.Duration(d.int())
	sh.NextSeq = d.uint()
	sh.Executed = d.uint()
	sh.Events = getRows(d, eventBytes, (*decoder).event)
	sh.Sessions = getRows(d, sessionBytes, (*decoder).session)
	sh.Active = int(d.int())
	d.counters(&sh.Counters)
	sh.ServerBuckets = getMap[int64, int64](d)
	sh.DemandBuckets = getMap[int64, int64](d)
	sh.CoaxBuckets = getMap[int64, int64](d)
	sh.ObsHour = d.int()
	sh.ObsServerRate = units.BitRate(d.int())
	sh.Peers = getRows(d, peerBytes, (*decoder).peer)
	d.coax(&sh.Coax)
	d.index(&sh.Index)
}

func (e *encoder) event(ev *EventState) {
	e.int(int64(ev.At))
	e.int(int64(ev.Prio))
	e.uint(ev.Seq)
	e.uint(uint64(ev.Kind))
	e.int(int64(ev.Session))
	e.int(int64(ev.Peer))
}

func (d *decoder) event(ev *EventState) {
	ev.At = time.Duration(d.int())
	ev.Prio = int(d.int())
	ev.Seq = d.uint()
	if k := d.uint(); k <= math.MaxUint8 {
		ev.Kind = uint8(k)
	} else {
		d.fail(fmt.Errorf("event kind %d", k))
	}
	ev.Session = int(d.int())
	ev.Peer = int(d.int())
}

func (e *encoder) session(s *SessionState) {
	e.record(&s.Rec)
	e.bool(s.FirstFetch)
}

func (d *decoder) session(s *SessionState) {
	d.record(&s.Rec)
	s.FirstFetch = d.bool()
}

func (e *encoder) counters(c *Counters) {
	e.uint(c.Sessions)
	e.uint(c.SegmentRequests)
	e.uint(c.Hits)
	e.uint(c.MissNotCached)
	e.uint(c.MissUnplaced)
	e.uint(c.MissPeerBusy)
	e.uint(c.MissFirstFetch)
	e.uint(c.Fills)
	e.uint(c.CoaxOverloads)
	e.uint(c.Admissions)
	e.uint(c.Evictions)
}

func (d *decoder) counters(c *Counters) {
	c.Sessions = d.uint()
	c.SegmentRequests = d.uint()
	c.Hits = d.uint()
	c.MissNotCached = d.uint()
	c.MissUnplaced = d.uint()
	c.MissPeerBusy = d.uint()
	c.MissFirstFetch = d.uint()
	c.Fills = d.uint()
	c.CoaxOverloads = d.uint()
	c.Admissions = d.uint()
	c.Evictions = d.uint()
}

func (e *encoder) peer(p *PeerState) {
	e.int(int64(p.Capacity))
	e.int(int64(p.Used))
	e.int(int64(p.Active))
}

func (d *decoder) peer(p *PeerState) {
	p.Capacity = units.ByteSize(d.int())
	p.Used = units.ByteSize(d.int())
	p.Active = int(d.int())
}

func (e *encoder) coax(c *CoaxState) {
	e.int(int64(c.Capacity))
	e.int(int64(c.Rate))
	e.int(int64(c.Active))
	e.int(int64(c.Peak))
}

func (d *decoder) coax(c *CoaxState) {
	c.Capacity = units.BitRate(d.int())
	c.Rate = units.BitRate(d.int())
	c.Active = int(d.int())
	c.Peak = units.BitRate(d.int())
}

func (e *encoder) index(ix *IndexState) {
	putRows(e, ix.Entries, func(e *encoder, en *cache.Entry) {
		e.int(int64(en.Program))
		e.int(int64(en.Size))
	})
	e.count(len(ix.Policy), ix.Policy == nil)
	e.b = append(e.b, ix.Policy...)
	e.uint(ix.Hits)
	e.uint(ix.Misses)
	e.uint(ix.Generation)
	e.int(int64(ix.FillCursor))

	e.count(len(ix.Placements), ix.Placements == nil)
	if ix.Placements == nil {
		return
	}
	rows, copies := 0, 0
	for i := range ix.Placements {
		rows += len(ix.Placements[i].Slots)
		for _, row := range ix.Placements[i].Slots {
			copies += len(row)
		}
	}
	e.uint(uint64(rows))
	e.uint(uint64(copies))
	for i := range ix.Placements {
		p := &ix.Placements[i]
		e.int(int64(p.Program))
		e.int(int64(p.Replicas))
		putRows(e, p.Slots, func(e *encoder, row *[]int) {
			putRows(e, *row, func(e *encoder, pi *int) { e.int(int64(*pi)) })
		})
		e.int(int64(p.RejectedSegs))
		e.int(int64(p.RejectedReps))
		e.uint(p.RejectedGen)
	}
}

func (d *decoder) index(ix *IndexState) {
	ix.Entries = getRows(d, entryBytes, func(d *decoder, en *cache.Entry) {
		en.Program = trace.ProgramID(d.int32())
		en.Size = units.ByteSize(d.int())
	})
	if n, ok := d.count(1); ok {
		ix.Policy = slices.Clone(d.take(n))
	}
	ix.Hits = d.uint()
	ix.Misses = d.uint()
	ix.Generation = d.uint()
	ix.FillCursor = int(d.int())

	n, ok := d.count(placementBytes)
	if !ok {
		return
	}
	// Every placement takes its own bytes besides its rows, and every
	// row and copy at least a byte, so the totals must fit in what the
	// placements leave.
	rows, copies := d.uint(), d.uint()
	if left := d.left() - n*placementBytes; left < 0 || rows > uint64(left) || copies > uint64(left)-rows {
		d.fail(fmt.Errorf("%d placements claim %d segment rows and %d copies in %d bytes", n, rows, copies, d.left()))
		return
	}
	slots, cells := make([][]int, rows), make([]int, copies)
	ix.Placements = make([]PlacementState, n)
	for i := range ix.Placements {
		p := &ix.Placements[i]
		p.Program = trace.ProgramID(d.int32())
		p.Replicas = int(d.int())
		if n, ok := d.count(1); ok {
			if n > len(slots) {
				d.fail(errors.New("placements hold more segment rows than their total"))
				return
			}
			p.Slots, slots = slots[:n:n], slots[n:]
			for j := range p.Slots {
				c, ok := d.count(1)
				if !ok {
					continue
				}
				if c > len(cells) {
					d.fail(errors.New("placements hold more copies than their total"))
					return
				}
				row := cells[:c:c]
				cells = cells[c:]
				for k := range row {
					row[k] = int(d.int())
				}
				p.Slots[j] = row
			}
		}
		p.RejectedSegs = int(d.int())
		p.RejectedReps = int(d.int())
		p.RejectedGen = d.uint()
	}
	if len(slots) != 0 || len(cells) != 0 {
		d.fail(fmt.Errorf("placements leave %d of their segment rows and %d of their copies unused", len(slots), len(cells)))
	}
}

// putRows writes a slice: its count, then each element.
func putRows[T any](e *encoder, rows []T, put func(*encoder, *T)) {
	e.count(len(rows), rows == nil)
	for i := range rows {
		put(e, &rows[i])
	}
}

// getRows reads a slice written by putRows whose elements take at least
// size bytes each.
func getRows[T any](d *decoder, size int, get func(*decoder, *T)) []T {
	n, ok := d.count(size)
	if !ok {
		return nil
	}
	rows := make([]T, n)
	for i := range rows {
		get(d, &rows[i])
	}
	return rows
}

// putMap writes an integer-keyed map: its count, then its key, value
// pairs in increasing key order.
func putMap[K ~int32 | ~int64, V ~int64](e *encoder, m map[K]V) {
	e.count(len(m), m == nil)
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, int64(k))
	}
	slices.Sort(e.keys)
	for _, k := range e.keys {
		e.int(k)
		e.int(int64(m[K(k)]))
	}
}

// getMap reads a map written by putMap, requiring its keys in
// increasing order, so one map has one encoding.
func getMap[K ~int32 | ~int64, V ~int64](d *decoder) map[K]V {
	n, ok := d.count(mapEntryBytes)
	if !ok {
		return nil
	}
	m := make(map[K]V, n)
	prev := int64(0)
	for i := range n {
		k, v := d.int(), d.int()
		switch {
		case int64(K(k)) != k:
			d.fail(fmt.Errorf("map key %d out of range", k))
			return nil
		case i > 0 && k <= prev:
			d.fail(fmt.Errorf("map key %d after %d", k, prev))
			return nil
		}
		m[K(k)] = V(v)
		prev = k
	}
	return m
}

func (e *encoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) int(v int64)   { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// count writes a slice's or map's length plus one, or 0 for nil.
func (e *encoder) count(n int, isNil bool) {
	if isNil {
		e.uint(0)
	} else {
		e.uint(uint64(n) + 1)
	}
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

// left is the number of bytes the payload has left.
func (d *decoder) left() int { return len(d.b) - d.off }

// take returns the next n bytes, n <= left.
func (d *decoder) take(n int) []byte {
	p := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

// end reports the first error, or bytes the fields left unread.
func (d *decoder) end() error {
	if d.err == nil && d.left() != 0 {
		return fmt.Errorf("%d bytes after the last field", d.left())
	}
	return d.err
}

func (d *decoder) uint() uint64 {
	// One-byte values, most of a state's, skip binary.Uvarint's loop.
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(errors.New("section ends inside a field"))
		} else {
			d.fail(errors.New("varint overflows 64 bits"))
		}
		return 0
	}
	d.off += n
	return v
}

// int reads a zigzag varint, as binary.Varint does.
func (d *decoder) int() int64 {
	u := d.uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int32() int32 {
	v := d.int()
	if int64(int32(v)) != v {
		d.fail(fmt.Errorf("value %d overflows 32 bits", v))
	}
	return int32(v)
}

func (d *decoder) bool() bool {
	if d.off < len(d.b) && d.b[d.off] <= 1 {
		d.off++
		return d.b[d.off-1] == 1
	}
	d.fail(errors.New("bool is not a byte of 0 or 1"))
	return false
}

func (d *decoder) str() string {
	n := d.uint()
	if n > uint64(d.left()) {
		d.fail(fmt.Errorf("string of %d bytes in %d", n, d.left()))
		return ""
	}
	return string(d.take(int(n)))
}

// count reads a length written by encoder.count; ok is false for nil. A
// count whose elements, of at least size bytes each, cannot fit in the
// bytes left fails.
func (d *decoder) count(size int) (n int, ok bool) {
	v := d.uint()
	if v == 0 {
		return 0, false
	}
	if v-1 > uint64(d.left()/size) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", v-1, d.left()))
		return 0, false
	}
	return int(v - 1), true
}
