package universe

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/units"
)

// TestCheckpointAllocations: one Checkpoint of a mid-size LFU state,
// digested as LongRun digests it, allocates at most checkpointAllocRatio
// times the file it writes, and writes and digests exactly what
// WriteState and StateDigest of the exported state do.
func TestCheckpointAllocations(t *testing.T) {
	cfg := synth.TestConfig()
	cfg.Users, cfg.Days = 6000, 4
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No future records, as in LongRun: the head is then small and the
	// shards hold the state.
	w := core.WorkloadFromTrace(tr)
	w.Future = nil
	sys, err := core.NewSystem(core.Config{
		Topology:     hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB},
		StrategyName: "lfu",
		Parallelism:  1,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records[:len(tr.Records)*3/4]); err != nil {
		t.Fatal(err)
	}
	// The first checkpoint of a process also fills encoding/json's type
	// cache; LongRun's later legs measure like the second.
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := sys.Checkpoint(path, newDigester(sha256.New())); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	d := newDigester(sha256.New())
	if err := sys.Checkpoint(path, d); err != nil {
		t.Fatal(err)
	}
	digest := d.sum(false)
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - before
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checkpoint of %d bytes allocated %d (%.2fx)", len(file), alloc, float64(alloc)/float64(len(file)))
	if limit := uint64(checkpointAllocRatio * float64(len(file))); alloc > limit {
		t.Errorf("checkpoint of %d bytes allocated %d, over %.1fx its size", len(file), alloc, checkpointAllocRatio)
	}

	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file) {
		t.Errorf("Checkpoint wrote %d bytes, WriteState of the export %d", len(file), buf.Len())
	}
	if want, err := StateDigest(st); err != nil || digest != want {
		t.Errorf("Checkpoint digested %s, the export %s (%v)", digest, want, err)
	}
}

// checkpointAllocRatio is k in the bound. What a checkpoint still
// allocates, as a share of this state's 0.71 MB file: the export
// scratch, grown by doubling to the largest of the 20 shards (placement
// rows 0.19, copies 0.06, the rest 0.05); the encoder's section buffer
// and index (0.2); the digester's buffers (0.13); and the policy-blob
// buffer, which also grows to the largest shard's blob where a fresh
// blob per shard cost 0.67 (0.1). That is about 0.75; 0.79 is measured,
// and k leaves a quarter of headroom. The export before the scratch was
// reused allocated 11.5 times the file, and 1.62 times before the meter
// maps, pending events and policy blobs were reused too.
const checkpointAllocRatio = 0.99
