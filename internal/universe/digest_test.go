package universe

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// textHash is a hash.Hash that keeps what it is fed, so a test can read
// the digest writer's text.
type textHash struct{ bytes.Buffer }

func (*textHash) Sum(b []byte) []byte { return b }
func (*textHash) Size() int           { return 0 }
func (*textHash) BlockSize() int      { return 1 }

// writerText is the text the digest writer hashes for st.
func writerText(t *testing.T, st *core.SystemState) []byte {
	t.Helper()
	var h textHash
	if _, err := newDigester(&h).state(st); err != nil {
		t.Fatal(err)
	}
	return h.Bytes()
}

// encoderText is the text json.NewEncoder(h).Encode wrote for st when
// it was the digest: the canonical form.
func encoderText(t *testing.T, st *core.SystemState) []byte {
	t.Helper()
	c := *st
	c.Config.Parallelism = 0
	c.Future = nil
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digestTestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := synth.TestConfig()
	cfg.Users = 900
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func digestTestConfig(strategy string) core.Config {
	return core.Config{
		Topology:     hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB},
		StrategyName: strategy,
		Parallelism:  1,
	}
}

// halfRun builds an engine, arms schedule and submits the first half of
// the trace.
func halfRun(t *testing.T, tr *trace.Trace, cfg core.Config, schedule []core.Disruption) *core.System {
	t.Helper()
	sys, err := core.NewSystem(cfg, core.WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ScheduleDisruptions(schedule); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records[:len(tr.Records)/2]); err != nil {
		t.Fatal(err)
	}
	return sys
}

func exportState(t *testing.T, sys *core.System) *core.SystemState {
	t.Helper()
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// digestTestStates are exported states covering every shape the state
// types take: every exportable built-in strategy in both fill modes,
// replicas and prefix plans, pending disruptions, empty shards,
// segments without copies, restored narrow placements, and hand-made
// edge values encoding/json treats specially.
func digestTestStates(t *testing.T) map[string]*core.SystemState {
	t.Helper()
	tr := digestTestTrace(t)
	states := map[string]*core.SystemState{}
	for _, strategy := range core.RegisteredStrategies() {
		if strategy == core.StrategyGlobalLFU.String() {
			continue // its live feed cannot be exported
		}
		for _, fill := range []core.FillMode{core.FillImmediate, core.FillOnBroadcast} {
			cfg := digestTestConfig(strategy)
			cfg.Fill = fill
			states[fmt.Sprintf("%s/%s", strategy, fill)] = exportState(t, halfRun(t, tr, cfg, nil))
		}
	}

	cfg := digestTestConfig("lfu")
	cfg.Fill = core.FillOnBroadcast
	cfg.Replicas = 2
	cfg.PrefixSegments = 3
	states["replicas+prefix"] = exportState(t, halfRun(t, tr, cfg, nil))

	// A quarter of neighborhood 0's boxes fail before the cut, losing
	// their copies; a cold restart and a coax cut stay pending.
	fresh, err := core.NewSystem(digestTestConfig("lfu"), core.WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	empty := exportState(t, fresh)
	states["empty shards"] = empty
	caps := make([]units.ByteSize, len(empty.Shards[0].Peers))
	for i := range caps {
		caps[i] = 2 * units.GB
		if i < len(caps)/4 {
			caps[i] = 0
		}
	}
	last := tr.Records[len(tr.Records)-1].Start
	states["disruptions"] = exportState(t, halfRun(t, tr, digestTestConfig("lfu"), []core.Disruption{
		{At: 20 * time.Hour, Kind: core.DisruptPeerCapacities, Neighborhood: 0, PeerCapacities: caps},
		{At: last, Kind: core.DisruptColdRestart, Neighborhood: 1},
		{At: last, Kind: core.DisruptCoaxCapacity, Neighborhood: -1, CoaxCapacity: hfc.DefaultCoaxCapacity / 2},
	}))

	// A placement row claiming far more replicas than its copies
	// restores narrow; export the restored engine.
	narrow := exportState(t, halfRun(t, tr, digestTestConfig("lfu"), nil))
	placements := slices.Clone(narrow.Shards[0].Index.Placements)
	placements[0].Replicas = math.MaxInt32
	placements[0].Slots = make([][]int, len(placements[0].Slots))
	narrow.Shards = slices.Clone(narrow.Shards)
	narrow.Shards[0].Index.Placements = placements
	restored, err := core.RestoreSystem(narrow, core.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	states["restored narrow"] = exportState(t, restored)

	// Values encoding/json writes specially: empty but non-nil slices,
	// maps whose keys sort differently as strings than as numbers, an
	// empty policy blob, and nil or empty shard lists.
	odd := *exportState(t, halfRun(t, tr, digestTestConfig("lfu"), nil))
	odd.Users = []trace.UserID{}
	odd.Lengths = map[trace.ProgramID]time.Duration{9: 1, 10: 2, 100: 3, 0: 4, 1: 5, math.MaxInt32: 6}
	odd.Disruptions = []core.Disruption{}
	odd.Shards = slices.Clone(odd.Shards)
	sh := &odd.Shards[0]
	sh.ServerBuckets = map[int64]int64{-1: 1, -10: 2, -9: 3, 9: 4, 10: 5, math.MinInt64: 6, math.MaxInt64: 7}
	sh.DemandBuckets = map[int64]int64{}
	sh.CoaxBuckets = nil
	sh.Events = []core.EventState{}
	sh.Sessions = nil
	sh.Peers = []core.PeerState{}
	sh.Index.Entries = nil
	sh.Index.Policy = []byte{}
	sh.Index.Placements = []core.PlacementState{{Program: 3, Slots: [][]int{{}, nil, {2, 1}}}, {Program: 4}}
	states["edge values"] = &odd
	noShards := odd
	noShards.Shards = nil
	states["nil shards"] = &noShards
	emptyShards := odd
	emptyShards.Shards = []core.ShardState{}
	states["no shards"] = &emptyShards
	return states
}

// TestDigestWriterMatchesEncodingJSON holds the digest writer to the
// canonical form byte for byte.
func TestDigestWriterMatchesEncodingJSON(t *testing.T) {
	states := digestTestStates(t)
	var pending, uncopied bool
	for name, st := range states {
		got, want := writerText(t, st), encoderText(t, st)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			from := max(0, i-80)
			t.Errorf("%s: writer diverges from encoding/json at byte %d of %d:\n  writer %q\n  json   %q",
				name, i, len(want), got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
			continue
		}
		if name != "edge values" && len(st.Disruptions) > 0 {
			pending = true
		}
		for _, sh := range st.Shards {
			for _, ps := range sh.Index.Placements {
				if slices.ContainsFunc(ps.Slots, func(row []int) bool { return row == nil }) {
					uncopied = true
				}
			}
		}
	}
	if !pending || !uncopied {
		t.Fatalf("cases miss a shape: pending disruptions %v, segments without copies %v", pending, uncopied)
	}
}

// TestStateDigestHashesCanonicalText: StateDigest is the sha256 of the
// canonical text.
func TestStateDigestHashesCanonicalText(t *testing.T) {
	st := digestTestStates(t)["replicas+prefix"]
	got, err := StateDigest(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(encoderText(t, st))
	if want := "sha256:" + hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("StateDigest %s, sha256 of the canonical text %s", got, want)
	}
}

// TestStateFileRoundTrip: every exported state reads back from its
// state file exactly as it was written, so a loaded state digests as
// the saved one did. The hand-made cases are not exported states and
// are left out.
func TestStateFileRoundTrip(t *testing.T) {
	exported := 0
	for name, st := range digestTestStates(t) {
		if name == "edge values" || name == "nil shards" || name == "no shards" {
			continue
		}
		exported++
		var buf bytes.Buffer
		if err := core.WriteState(&buf, st); err != nil {
			t.Fatal(err)
		}
		got, _, err := core.ReadState(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Errorf("%s: the state read back differs from the state written", name)
		}
		want, err := StateDigest(st)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := StateDigest(got); err != nil || d != want {
			t.Errorf("%s: the state read back digests to %s (%v), the state written to %s", name, d, err, want)
		}
	}
	if exported < 4 {
		t.Fatalf("only %d exported cases", exported)
	}
}

// TestDigestWriterFieldLists fails when a state type gains a field the
// digest writer does not write: add it to the writer (in declaration
// order), and the byte-for-byte test will check it.
func TestDigestWriterFieldLists(t *testing.T) {
	st := digestTestStates(t)["disruptions"]
	written := objectKeys(t, writerText(t, st))
	for _, c := range []struct {
		path string
		typ  reflect.Type
	}{
		{"", reflect.TypeFor[core.SystemState]()},
		{".Shards[]", reflect.TypeFor[core.ShardState]()},
		{".Shards[].Events[]", reflect.TypeFor[core.EventState]()},
		{".Shards[].Sessions[]", reflect.TypeFor[core.SessionState]()},
		{".Shards[].Sessions[].Rec", reflect.TypeFor[trace.Record]()},
		{".Shards[].Peers[]", reflect.TypeFor[core.PeerState]()},
		{".Shards[].Index", reflect.TypeFor[core.IndexState]()},
		{".Shards[].Index.Entries[]", reflect.TypeFor[cache.Entry]()},
		{".Shards[].Index.Placements[]", reflect.TypeFor[core.PlacementState]()},
	} {
		var want []string
		for _, f := range reflect.VisibleFields(c.typ) {
			if f.IsExported() && !f.Anonymous {
				want = append(want, f.Name)
			}
		}
		if got := written[c.path]; !slices.Equal(got, want) {
			t.Errorf("%s: the digest writer writes fields %v; the type has %v", c.typ, got, want)
		}
	}
}

// objectKeys maps each object path in a JSON text (".A[].B" style) to
// the keys of the first object at that path, in order.
func objectKeys(t *testing.T, text []byte) map[string][]string {
	t.Helper()
	type frame struct {
		path   string
		object bool
		key    string // the pending value's key, in an object
		keys   []string
	}
	out := map[string][]string{}
	stack := []*frame{{path: "#"}}
	dec := json.NewDecoder(bytes.NewReader(text))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		top := stack[len(stack)-1]
		if top.object && top.key == "" {
			if delim, ok := tok.(json.Delim); ok && delim == '}' {
				if _, seen := out[top.path]; !seen {
					out[top.path] = top.keys
				}
				stack = stack[:len(stack)-1]
				continue
			}
			top.key = tok.(string)
			top.keys = append(top.keys, top.key)
			continue
		}
		path := top.path + "[]"
		if top.object {
			path = top.path + "." + top.key
			top.key = ""
		}
		if top.path == "#" {
			path = ""
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{path: path, object: true})
		case json.Delim('['):
			stack = append(stack, &frame{path: path})
		case json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
	}
}

// TestCmpDecimal checks the map-key order against comparing the
// decimal strings themselves.
func TestCmpDecimal(t *testing.T) {
	check := func(a, b int64) bool {
		return cmpDecimal(a, b) == strings.Compare(strconv.FormatInt(a, 10), strconv.FormatInt(b, 10))
	}
	edges := []int64{0, 1, 9, 10, 11, 19, 90, 99, 100, -1, -9, -10, -100, 1e18, 999999999999999999,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt32}
	for _, a := range edges {
		for _, b := range edges {
			if !check(a, b) {
				t.Errorf("cmpDecimal(%d, %d) = %d", a, b, cmpDecimal(a, b))
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	small := func(a, b int16) bool { return check(int64(a), int64(b)) }
	if err := quick.Check(small, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// testSecondTouchStrategy is LFU behind a second-touch admission filter.
const testSecondTouchStrategy = "test-lfu-2touch"

func init() {
	err := core.RegisterStrategyInfo(testSecondTouchStrategy, "windowed frequency admitting from the second request",
		func(env *core.PolicyEnv) (func(int) (cache.Policy, error), error) {
			return func(int) (cache.Policy, error) {
				sc, err := cache.NewFrequencyScorer(env.Config.LFUHistory)
				if err != nil {
					return nil, err
				}
				return cache.NewPipeline(cache.PipelineConfig{Name: testSecondTouchStrategy, Scorer: sc, Admission: cache.NewSecondTouchAdmission()})
			}, nil
		}, core.StrategyTraits{ShardIndependent: true})
	if err != nil {
		panic(err)
	}
}

// TestMapBackedStagesDigestStably: the recency2 scorer and the
// second-touch filter keep per-program maps, and their snapshot must
// not follow map iteration order.
func TestMapBackedStagesDigestStably(t *testing.T) {
	tr := digestTestTrace(t)
	for _, strategy := range []string{"lru-2", testSecondTouchStrategy} {
		sys := halfRun(t, tr, digestTestConfig(strategy), nil)
		var digests []string
		for range 3 {
			d, err := StateDigest(exportState(t, sys))
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		if digests[1] != digests[0] || digests[2] != digests[0] {
			t.Errorf("%s: one engine digested to %v", strategy, digests)
		}
	}
}

// TestDigestIndependentOfGobHistory runs a one-leg quick LongRun in two
// fresh processes, one of which first gob-encodes a SystemState and a
// trace. Gob numbers types in the order a process first encodes them,
// and the digest covers gob-encoded policy blobs, so the two digests
// agree only if those numbers are fixed.
func TestDigestIndependentOfGobHistory(t *testing.T) {
	if mode := os.Getenv("UNIVERSE_DIGEST_CHILD"); mode != "" {
		if mode == "gob-first" {
			enc := gob.NewEncoder(io.Discard)
			if err := enc.Encode(&core.SystemState{}); err != nil {
				t.Fatal(err)
			}
			tr := trace.New()
			tr.Records = []trace.Record{{User: 1, Program: 2, Start: time.Hour, Duration: time.Minute}}
			if err := tr.WriteGob(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		tier, err := Tier("quick")
		if err != nil {
			t.Fatal(err)
		}
		res, err := LongRun(tier, core.Config{}, LongRunOptions{Dir: t.TempDir(), MaxLegs: 1})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("digest %s\n", res.Digest)
		return
	}
	run := func(mode string) string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDigestIndependentOfGobHistory$")
		cmd.Env = append(os.Environ(), "UNIVERSE_DIGEST_CHILD="+mode)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", mode, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if d, ok := strings.CutPrefix(line, "digest "); ok {
				return d
			}
		}
		t.Fatalf("%s child printed no digest:\n%s", mode, out)
		return ""
	}
	clean, dirty := run("clean"), run("gob-first")
	if clean != dirty {
		t.Fatalf("one-leg quick run digests to %s in a fresh process, %s after gob-encoding a SystemState", clean, dirty)
	}
}
