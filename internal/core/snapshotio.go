package core

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapshotFormat identifies snapshot files.
const snapshotFormat = "cablevod-snapshot"

// snapshotHeader is the file's first line: plain JSON so `head -1` tells
// a human what the file is without decoding the gob body that follows.
type snapshotHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Strategy  string `json:"strategy"`
	At        string `json:"at"`
	Submitted int    `json:"submitted"`
	Shards    int    `json:"shards"`
}

// WriteState serializes a SystemState to w: one JSON header line, then
// a gob stream — the state with Shards elided, followed by one message
// per shard. Gob buffers each top-level message wholly in memory before
// emitting it, so encoding a mega-scale state as a single message would
// materialize a multi-gigabyte buffer at exactly the moment the
// engine's own footprint peaks; per-shard messages bound the buffer to
// the largest neighborhood.
func WriteState(w io.Writer, st *SystemState) error {
	if st == nil {
		return fmt.Errorf("core: nil system state")
	}
	return st.Stream(&stateEncoder{w: w})
}

// stateEncoder is the StateSink that writes WriteState's framing, so a
// live engine streams to the same format one shard at a time.
type stateEncoder struct {
	w   io.Writer
	enc *gob.Encoder
	n   int // shards written
}

func (e *stateEncoder) Head(head *SystemState, shards int) error {
	hdr := snapshotHeader{
		Format:    snapshotFormat,
		Version:   head.Version,
		Strategy:  head.Strategy(),
		At:        head.LastStart.String(),
		Submitted: head.Submitted,
		Shards:    shards,
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("core: encode snapshot header: %w", err)
	}
	if _, err := e.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	e.enc = gob.NewEncoder(e.w)
	if err := e.enc.Encode(head); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return nil
}

func (e *stateEncoder) Shard(sh *ShardState) error {
	if err := e.enc.Encode(sh); err != nil {
		return fmt.Errorf("core: encode snapshot shard %d: %w", e.n, err)
	}
	e.n++
	return nil
}

// ReadState deserializes a SystemState written by WriteState, verifying
// the format and version before decoding the body.
func ReadState(r io.Reader) (*SystemState, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot header: %w", err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("core: not a snapshot file (bad header): %w", err)
	}
	if hdr.Format != snapshotFormat {
		return nil, fmt.Errorf("core: not a snapshot file (format %q)", hdr.Format)
	}
	if hdr.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", hdr.Version, SnapshotVersion)
	}
	dec := gob.NewDecoder(br)
	var st SystemState
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if st.Version != hdr.Version {
		return nil, fmt.Errorf("core: snapshot body version %d disagrees with header %d", st.Version, hdr.Version)
	}
	st.Shards = make([]ShardState, hdr.Shards)
	for i := range st.Shards {
		if err := dec.Decode(&st.Shards[i]); err != nil {
			return nil, fmt.Errorf("core: decode snapshot shard %d/%d: %w", i, hdr.Shards, err)
		}
	}
	return &st, nil
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
// held. also receives every part too, after the file: a digest rides
// the same pass.
func (s *System) Checkpoint(path string, also StateSink) error {
	return saveFile(path, func(w io.Writer) error {
		return s.streamState(teeSink{&stateEncoder{w: w}, also})
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
// which is flushed, closed and renamed over path.
func saveFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	return nil
}

// LoadStateFile reads a snapshot file written by SaveStateFile.
func LoadStateFile(path string) (*SystemState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load snapshot: %w", err)
	}
	defer f.Close()
	st, err := ReadState(f)
	if err != nil {
		return nil, fmt.Errorf("core: load snapshot %s: %w", path, err)
	}
	return st, nil
}
