package universe

import (
	"cmp"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"
	"strconv"

	"cablevod/internal/cache"
	"cablevod/internal/core"
	"cablevod/internal/trace"
)

// StateDigest canonically hashes an exported engine state. Two runs of
// the same universe are bit-identical exactly when their digests match,
// regardless of engine parallelism (the one knob that may legitimately
// differ across equivalent runs, so it is zeroed before hashing) and of
// how many checkpoint/resume legs each run was split into.
//
// The canonical form is the JSON text json.NewEncoder(h).Encode writes
// for the state, maps in sorted key order. The state file is canonical
// too, but it keeps Config.Parallelism and the workload tail, which the
// digest drops, so equivalent runs may write different files. The
// digest writer emits exactly those JSON bytes, but it writes the bulk
// rows (users, lengths, events, sessions, peers, entries, placements)
// by hand and hands the hash its text in chunks of about 32 KB, so it
// never holds the state's JSON text; json.Encoder would build all of it
// in one buffer first. LongRun's checkpoint feeds the same writer from
// the live engine, one shard at a time (see core.System.Checkpoint).
func StateDigest(st *core.SystemState) (string, error) {
	return newDigester(sha256.New()).state(st)
}

// digester is the core.StateSink that hashes a state's canonical JSON.
type digester struct {
	h      hash.Hash
	buf    []byte
	keys   []int64 // scratch for sorting map keys
	shards int     // shards written
}

// digestChunk is how many bytes the digester buffers before hashing.
const digestChunk = 32 << 10

func newDigester(h hash.Hash) *digester {
	return &digester{h: h, buf: make([]byte, 0, 2*digestChunk)}
}

// state feeds a whole exported state through the writer.
func (d *digester) state(st *core.SystemState) (string, error) {
	if err := st.Stream(d); err != nil {
		return "", err
	}
	return d.sum(st.Shards == nil), nil
}

// Head writes the state's fields before Shards. The digest zeroes
// Config.Parallelism and omits Future: the unconsumed workload tail is
// not engine state — LongRun regenerates it from the spec and never
// materializes it, so two equivalent states may differ there.
func (d *digester) Head(head *core.SystemState, _ int) error {
	cfg := head.Config
	cfg.Parallelism = 0
	d.str(`{"Version":`)
	d.int(int64(head.Version))
	d.str(`,"Config":`)
	if err := d.json(cfg); err != nil {
		return err
	}
	d.str(`,"Users":`)
	writeInts(d, head.Users)
	d.str(`,"Lengths":`)
	writeMap(d, head.Lengths)
	d.str(`,"Future":null,"Submitted":`)
	d.int(int64(head.Submitted))
	d.str(`,"LastStart":`)
	d.int(int64(head.LastStart))
	d.str(`,"Disruptions":`)
	if err := d.json(head.Disruptions); err != nil {
		return err
	}
	d.str(`,"Shards":`)
	return nil
}

// Shard writes one element of Shards.
func (d *digester) Shard(sh *core.ShardState) error {
	if d.shards == 0 {
		d.str("[")
	} else {
		d.str(",")
	}
	d.shards++
	d.str(`{"Neighborhood":`)
	d.int(int64(sh.Neighborhood))
	d.str(`,"QueueNow":`)
	d.int(int64(sh.QueueNow))
	d.str(`,"NextSeq":`)
	d.uint(sh.NextSeq)
	d.str(`,"Executed":`)
	d.uint(sh.Executed)
	d.str(`,"Events":`)
	writeRows(d, sh.Events, (*digester).event)
	d.str(`,"Sessions":`)
	writeRows(d, sh.Sessions, (*digester).session)
	d.str(`,"Active":`)
	d.int(int64(sh.Active))
	d.str(`,"Counters":`)
	if err := d.json(sh.Counters); err != nil {
		return err
	}
	d.str(`,"ServerBuckets":`)
	writeMap(d, sh.ServerBuckets)
	d.str(`,"DemandBuckets":`)
	writeMap(d, sh.DemandBuckets)
	d.str(`,"CoaxBuckets":`)
	writeMap(d, sh.CoaxBuckets)
	d.str(`,"ObsHour":`)
	d.int(sh.ObsHour)
	d.str(`,"ObsServerRate":`)
	d.int(int64(sh.ObsServerRate))
	d.str(`,"Peers":`)
	writeRows(d, sh.Peers, (*digester).peer)
	d.str(`,"Coax":`)
	if err := d.json(sh.Coax); err != nil {
		return err
	}
	d.str(`,"Index":{"Entries":`)
	ix := &sh.Index
	writeRows(d, ix.Entries, (*digester).entry)
	d.str(`,"Policy":`)
	if ix.Policy == nil {
		d.str("null")
	} else {
		d.str(`"`)
		d.buf = base64.StdEncoding.AppendEncode(d.buf, ix.Policy)
		d.str(`"`)
	}
	d.str(`,"Hits":`)
	d.uint(ix.Hits)
	d.str(`,"Misses":`)
	d.uint(ix.Misses)
	d.str(`,"Generation":`)
	d.uint(ix.Generation)
	d.str(`,"FillCursor":`)
	d.int(int64(ix.FillCursor))
	d.str(`,"Placements":`)
	writeRows(d, ix.Placements, (*digester).placement)
	d.str("}}")
	d.spill()
	return nil
}

// sum closes the document and returns the digest. A state with no
// shards writes them as null when its Shards slice is nil, as
// encoding/json does.
func (d *digester) sum(nilShards bool) string {
	switch {
	case d.shards > 0:
		d.str("]")
	case nilShards:
		d.str("null")
	default:
		d.str("[]")
	}
	d.str("}\n")
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return "sha256:" + hex.EncodeToString(d.h.Sum(nil))
}

func (d *digester) event(e *core.EventState) {
	d.str(`{"At":`)
	d.int(int64(e.At))
	d.str(`,"Prio":`)
	d.int(int64(e.Prio))
	d.str(`,"Seq":`)
	d.uint(e.Seq)
	d.str(`,"Kind":`)
	d.uint(uint64(e.Kind))
	d.str(`,"Session":`)
	d.int(int64(e.Session))
	d.str(`,"Peer":`)
	d.int(int64(e.Peer))
	d.str("}")
}

func (d *digester) session(s *core.SessionState) {
	r := &s.Rec
	d.str(`{"Rec":{"User":`)
	d.int(int64(r.User))
	d.str(`,"Program":`)
	d.int(int64(r.Program))
	d.str(`,"Start":`)
	d.int(int64(r.Start))
	d.str(`,"Duration":`)
	d.int(int64(r.Duration))
	d.str(`,"Offset":`)
	d.int(int64(r.Offset))
	d.str(`},"FirstFetch":`)
	d.buf = strconv.AppendBool(d.buf, s.FirstFetch)
	d.str("}")
}

func (d *digester) peer(p *core.PeerState) {
	d.str(`{"Capacity":`)
	d.int(int64(p.Capacity))
	d.str(`,"Used":`)
	d.int(int64(p.Used))
	d.str(`,"Active":`)
	d.int(int64(p.Active))
	d.str("}")
}

func (d *digester) entry(e *cache.Entry) {
	d.str(`{"Program":`)
	d.int(int64(e.Program))
	d.str(`,"Size":`)
	d.int(int64(e.Size))
	d.str("}")
}

func (d *digester) placement(p *core.PlacementState) {
	d.str(`{"Program":`)
	d.int(int64(p.Program))
	d.str(`,"Replicas":`)
	d.int(int64(p.Replicas))
	d.str(`,"Slots":`)
	if p.Slots == nil {
		d.str("null")
	} else {
		d.str("[")
		for i, row := range p.Slots {
			if i > 0 {
				d.str(",")
			}
			writeInts(d, row)
		}
		d.str("]")
	}
	d.str(`,"RejectedSegs":`)
	d.int(int64(p.RejectedSegs))
	d.str(`,"RejectedReps":`)
	d.int(int64(p.RejectedReps))
	d.str(`,"RejectedGen":`)
	d.uint(p.RejectedGen)
	d.str("}")
}

func (d *digester) str(s string)  { d.buf = append(d.buf, s...) }
func (d *digester) int(v int64)   { d.buf = strconv.AppendInt(d.buf, v, 10) }
func (d *digester) uint(v uint64) { d.buf = strconv.AppendUint(d.buf, v, 10) }

// json writes v as encoding/json does, for the small values the writer
// leaves to it.
func (d *digester) json(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("universe: canonicalizing state: %w", err)
	}
	d.buf = append(d.buf, b...)
	return nil
}

// spill hands the buffer to the hash once it holds a chunk.
func (d *digester) spill() {
	if len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

// writeRows writes a JSON array of structs, null when rows is nil.
func writeRows[T any](d *digester, rows []T, row func(*digester, *T)) {
	if rows == nil {
		d.str("null")
		return
	}
	d.str("[")
	for i := range rows {
		if i > 0 {
			d.str(",")
		}
		row(d, &rows[i])
		d.spill()
	}
	d.str("]")
}

// writeInts writes a JSON array of integers, null when vs is nil.
func writeInts[T ~int | ~int32](d *digester, vs []T) {
	if vs == nil {
		d.str("null")
		return
	}
	d.str("[")
	for i, v := range vs {
		if i > 0 {
			d.str(",")
		}
		d.int(int64(v))
		d.spill()
	}
	d.str("]")
}

// writeMap writes an integer-keyed map as encoding/json does: keys as
// strings, sorted as strings; null when m is nil.
func writeMap[K trace.ProgramID | int64, V ~int64](d *digester, m map[K]V) {
	if m == nil {
		d.str("null")
		return
	}
	d.keys = d.keys[:0]
	for k := range m {
		d.keys = append(d.keys, int64(k))
	}
	slices.SortFunc(d.keys, cmpDecimal)
	d.str("{")
	for i, k := range d.keys {
		if i > 0 {
			d.str(",")
		}
		d.str(`"`)
		d.int(k)
		d.str(`":`)
		d.int(int64(m[K(k)]))
		d.spill()
	}
	d.str("}")
}

// cmpDecimal orders integers by their decimal strings, as encoding/json
// sorts integer map keys: "-1" < "0" < "10" < "9".
func cmpDecimal(a, b int64) int {
	if (a < 0) != (b < 0) {
		if a < 0 {
			return -1 // '-' sorts before every digit
		}
		return 1
	}
	// Same sign: the strings share any '-', so the magnitudes' digits
	// decide. uint64(-a) is exact even for math.MinInt64.
	ma, mb := uint64(a), uint64(b)
	if a < 0 {
		ma, mb = uint64(-a), uint64(-b)
	}
	// Pad the shorter magnitude with zeros to the longer one's length;
	// if it then equals the longer one, it was a prefix and sorts first.
	da, db := decimalDigits(ma), decimalDigits(mb)
	switch {
	case da < db:
		if c := cmp.Compare(ma*pow10[db-da], mb); c != 0 {
			return c
		}
		return -1
	case da > db:
		if c := cmp.Compare(ma, mb*pow10[da-db]); c != 0 {
			return c
		}
		return 1
	}
	return cmp.Compare(ma, mb)
}

// pow10[i] is 10^i; every magnitude of an int64 has at most 19 digits.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// decimalDigits counts the decimal digits of v (1 for 0).
func decimalDigits(v uint64) int {
	n := 1
	for n < len(pow10) && v >= pow10[n] {
		n++
	}
	return n
}
