package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// A state file is one JSON header line (snapshotHeader), so `head -1`
// tells a human what the file is, then a binary body of sections: a
// head section, holding the state without its shards, then one section
// per shard in neighborhood order, then the end of the file. A section
// is
//
//	uvarint(len(payload)) payload crc32c(payload)
//
// where the CRC-32C (Castagnoli) takes four bytes, little-endian. A
// payload is a run of fields, each struct's in declaration order
// (statecodec.go):
//
//   - an integer of a signed type is a zigzag varint
//     (binary.AppendVarint), of an unsigned type a uvarint;
//   - a bool is one byte, 0 or 1; a string is a uvarint length and its
//     bytes;
//   - a slice or a map is a uvarint of its length plus one, 0 for nil,
//     then its elements; a map's elements are key, value pairs in
//     increasing key order, so one state always gives the same bytes;
//   - a struct is its fields.
//
// The head section writes, in place of SystemState.Shards, the shard
// count, which must equal the header's. IndexState.Placements writes
// two totals after its count, before its elements: the segment rows of
// all its placements' Slots and the copies in those rows, so a reader
// sizes one backing array of each per shard, as exportState does.
//
// The header's run field, omitted when empty, holds verbatim the JSON a
// Checkpoint caller hands over (universe.LongRun's ledger), so one file
// is a whole checkpoint. A header line takes at most maxHeaderLine
// bytes, its newline included. A file is committed with one rename,
// durable on return: the temp file is synced before it, the directory
// after it (saveFile).
//
// The reader takes a section's bytes only as they arrive and checks its
// CRC before it decodes it. It checks every count against the bytes
// left in the section before it allocates (each field of an element
// takes at least a byte), requires each section to be used up and the
// file to end after the last one. So a truncated, corrupt or hostile
// file fails with an error, and a read allocates at most a small
// multiple of the file's size (FuzzReadState states the multiple).

// snapshotFormat identifies state files, and stateFileVersion is the
// version of their layout. It is separate from SnapshotVersion, the
// version of the state types the body carries. Version 3 files had a
// gob body.
const (
	snapshotFormat   = "cablevod-snapshot"
	stateFileVersion = 4
)

// maxHeaderLine bounds the header line, and is the reader's buffer size.
const maxHeaderLine = 4 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotHeader is the file's first line.
type snapshotHeader struct {
	Format    string          `json:"format"`
	Version   int             `json:"version"`
	Strategy  string          `json:"strategy"`
	At        string          `json:"at"`
	Submitted int             `json:"submitted"`
	Shards    int             `json:"shards"`
	Run       json.RawMessage `json:"run,omitempty"`
}

// WriteState writes a SystemState to w as a state file.
func WriteState(w io.Writer, st *SystemState) error {
	if st == nil {
		return fmt.Errorf("core: nil system state")
	}
	return st.Stream(&stateEncoder{w: w})
}

// stateEncoder is the StateSink that writes WriteState's format, so a
// live engine streams to the same bytes one shard at a time. It builds
// one section at a time, so its buffer is bounded by the largest
// neighborhood.
type stateEncoder struct {
	w   io.Writer
	run json.RawMessage // the header's run field
	e   encoder
	n   int // shards written
}

func (s *stateEncoder) Head(head *SystemState, shards int) error {
	hdr := snapshotHeader{
		Format:    snapshotFormat,
		Version:   stateFileVersion,
		Strategy:  head.Strategy(),
		At:        head.LastStart.String(),
		Submitted: head.Submitted,
		Shards:    shards,
		Run:       s.run,
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("core: encode snapshot header: %w", err)
	}
	if len(line) >= maxHeaderLine {
		return fmt.Errorf("core: snapshot header of %d bytes exceeds the %d a reader accepts", len(line)+1, maxHeaderLine)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	s.e.head(head, shards)
	if err := s.section(); err != nil {
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	return nil
}

func (s *stateEncoder) Shard(sh *ShardState) error {
	s.e.shard(sh)
	if err := s.section(); err != nil {
		return fmt.Errorf("core: write snapshot shard %d: %w", s.n, err)
	}
	s.n++
	return nil
}

// section frames the payload the encoder holds, writes it and empties
// the encoder.
func (s *stateEncoder) section() error {
	var size [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(size[:], uint64(len(s.e.b)))
	s.e.b = binary.LittleEndian.AppendUint32(s.e.b, crc32.Checksum(s.e.b, castagnoli))
	_, err := s.w.Write(size[:n])
	if err == nil {
		_, err = s.w.Write(s.e.b)
	}
	s.e.b = s.e.b[:0]
	return err
}

// ReadState reads a SystemState written by WriteState or Checkpoint,
// and returns its header's run field as Checkpoint was given it: nil
// when the file has none. It checks the header's format and version,
// then every section's checksum, counts and length, and fails on
// anything after the last section.
func ReadState(r io.Reader) (*SystemState, json.RawMessage, error) {
	br := bufio.NewReaderSize(r, maxHeaderLine)
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, nil, fmt.Errorf("core: not a snapshot file (no header line in its first %d bytes)", maxHeaderLine)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: read snapshot header: %w", err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, nil, fmt.Errorf("core: not a snapshot file (bad header): %w", err)
	}
	if hdr.Format != snapshotFormat {
		return nil, nil, fmt.Errorf("core: not a snapshot file (format %q)", hdr.Format)
	}
	if hdr.Version != stateFileVersion {
		return nil, nil, fmt.Errorf("core: snapshot file version %d, this build reads version %d", hdr.Version, stateFileVersion)
	}
	if hdr.Shards < 0 {
		return nil, nil, fmt.Errorf("core: snapshot header has %d shards", hdr.Shards)
	}

	body := sectionReader{r: br}
	d, err := body.next()
	if err != nil {
		return nil, nil, fmt.Errorf("core: read snapshot head: %w", err)
	}
	st := new(SystemState)
	shards := d.head(st)
	if err := d.end(); err != nil {
		return nil, nil, fmt.Errorf("core: decode snapshot head: %w", err)
	}
	if shards != uint64(hdr.Shards) {
		return nil, nil, fmt.Errorf("core: snapshot body has %d shards, its header %d", shards, hdr.Shards)
	}
	// The shard slice grows by doubling as sections arrive, so a count
	// no section backs allocates nothing (FuzzReadState's allocation
	// bound counts on the doubling).
	st.Shards = []ShardState{}
	for i := range hdr.Shards {
		d, err := body.next()
		if err != nil {
			return nil, nil, fmt.Errorf("core: read snapshot shard %d/%d: %w", i, hdr.Shards, err)
		}
		if len(st.Shards) == cap(st.Shards) {
			grown := make([]ShardState, len(st.Shards), max(2*len(st.Shards), 4))
			copy(grown, st.Shards)
			st.Shards = grown
		}
		st.Shards = append(st.Shards, ShardState{})
		d.shard(&st.Shards[i])
		if err := d.end(); err != nil {
			return nil, nil, fmt.Errorf("core: decode snapshot shard %d/%d: %w", i, hdr.Shards, err)
		}
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, nil, fmt.Errorf("core: snapshot has bytes after its last section")
	case err != io.EOF:
		return nil, nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	return st, hdr.Run, nil
}

// sectionReader reads a body's sections into one buffer, reused from
// section to section.
type sectionReader struct {
	r   *bufio.Reader
	buf []byte
}

// maxSection bounds a section's declared length, so the arithmetic on it
// cannot overflow; a file cannot back anything near it anyway.
const maxSection = 1 << 50

// next reads one section and checks its CRC, returning a decoder over
// its payload. The buffer grows by at most the bytes already read (or
// 64 KiB) at a time, so a length the file cannot back allocates no more
// than twice what the file holds.
func (s *sectionReader) next() (decoder, error) {
	size, err := binary.ReadUvarint(s.r)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return decoder{}, err
	}
	if size > maxSection {
		return decoder{}, fmt.Errorf("section of %d bytes", size)
	}
	want := int(size) + crc32.Size
	buf := s.buf[:0]
	for len(buf) < want {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(want-len(buf), max(len(buf), 64<<10)))
		}
		n, err := io.ReadFull(s.r, buf[len(buf):min(cap(buf), want)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return decoder{}, err
		}
	}
	s.buf = buf
	payload := buf[:size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[size:]) {
		return decoder{}, fmt.Errorf("section of %d bytes fails its checksum", size)
	}
	return decoder{b: payload}, nil
}

// SaveStateFile writes a snapshot to path atomically (temp file +
// rename), so a crash mid-write never leaves a truncated snapshot where
// a good one was expected.
func SaveStateFile(path string, st *SystemState) error {
	return saveFile(path, func(w io.Writer) error { return WriteState(w, st) })
}

// Checkpoint writes the live engine's state to path as
// SaveStateFile(path, ExportState()) would, but exports, encodes and
// drops one shard at a time, so no copy of the whole engine is ever
// held, and exports each shard into the memory of the one before, so a
// call's garbage is about one shard's. run, when not empty, must be a
// JSON value: it goes into the header's run field, where LoadCheckpoint
// hands it back. also, when not nil, receives every part too, after the
// file, valid only for that call (StateSink): a digest rides the same
// pass.
func (s *System) Checkpoint(path string, run json.RawMessage, also StateSink) error {
	return saveFile(path, func(w io.Writer) error {
		var sink StateSink = &stateEncoder{w: w, run: run}
		if also != nil {
			sink = teeSink{sink, also}
		}
		return s.streamState(sink, true)
	})
}

// teeSink hands every part to each of its sinks in turn.
type teeSink []StateSink

func (t teeSink) Head(head *SystemState, shards int) error {
	for _, s := range t {
		if err := s.Head(head, shards); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) Shard(sh *ShardState) error {
	for _, s := range t {
		if err := s.Shard(sh); err != nil {
			return err
		}
	}
	return nil
}

// saveFile writes path atomically: write fills a buffered temp file,
// which is flushed, synced, closed and renamed over path, and then the
// directory is synced. So after a crash path holds the old file or the
// whole new one, and once saveFile returns, the new one; a crash before
// the rename leaves a .snapshot-* temp file, which no reader opens.
func saveFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save %s: %w", path, err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		defer dir.Close()
		err = dir.Sync()
	}
	if err != nil {
		return fmt.Errorf("core: save %s: sync directory: %w", path, err)
	}
	return nil
}

// LoadStateFile reads a snapshot file written by SaveStateFile.
func LoadStateFile(path string) (*SystemState, error) {
	st, _, err := LoadCheckpoint(path)
	return st, err
}

// LoadCheckpoint reads a state file as LoadStateFile does, and returns
// its header's run field (ReadState).
func LoadCheckpoint(path string) (*SystemState, json.RawMessage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load snapshot: %w", err)
	}
	defer f.Close()
	st, run, err := ReadState(f)
	if err != nil {
		return nil, nil, fmt.Errorf("core: load snapshot %s: %w", path, err)
	}
	return st, run, nil
}
