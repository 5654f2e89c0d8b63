package main

import (
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"cablevod/internal/core.(*shard).submit":                      "core",
		"cablevod/internal/core.(*System).forShards.func1":            "core",
		"cablevod/internal/scenario/spec.Parse":                       "scenario",
		"cablevod/internal/trace.(*Trace).Sort":                       "other",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                     "runtime",
		"encoding/json.(*decodeState).object":                         "encoding_json",
		"encoding/gob.(*Decoder).decodeStruct":                        "encoding_gob",
		"net/http.(*conn).serve":                                      "net",
		"net.(*netFD).Read":                                           "net",
		"slices.pdqsortCmpFunc[go.shape.struct { cablevod/x.A int }]": "other",
		"syscall.Syscall6":                                            "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// pb builds protobuf wire bytes for a hand-made pprof profile.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, p []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(p))), p...)
}

// cpuProfile encodes a CPU profile with one sample per entry of flat:
// a two-frame stack whose leaf is the named function, weighing the
// given nanoseconds.
func cpuProfile(flat map[string]int64) []byte {
	strs := []string{"", "cpu", "nanoseconds", "main.caller"}
	var p pb
	p = p.bytes(1, pb{}.uint(1, 1).uint(2, 2))
	p = p.bytes(5, pb{}.uint(1, 1).uint(2, 3))
	p = p.bytes(4, pb{}.uint(1, 1).bytes(4, pb{}.uint(1, 1)))
	id := uint64(2)
	for name, v := range flat {
		strs = append(strs, name)
		p = p.bytes(5, pb{}.uint(1, id).uint(2, uint64(len(strs)-1)))
		p = p.bytes(4, pb{}.uint(1, id).bytes(4, pb{}.uint(1, id)))
		p = p.bytes(2, pb{}.uint(1, id).uint(1, 1).uint(2, uint64(v)))
		id++
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	return p
}

func TestCPUShares(t *testing.T) {
	c := cpuShares{}
	for _, prof := range [][]byte{
		cpuProfile(map[string]int64{
			"cablevod/internal/core.(*shard).submit": 30,
			"runtime.mallocgc":                       20,
		}),
		cpuProfile(map[string]int64{
			"runtime.scanobject":                  30,
			"encoding/json.(*decodeState).object": 10,
			"cablevod/internal/trace.Validate":    10,
		}),
	} {
		if err := c.add(prof); err != nil {
			t.Fatal(err)
		}
	}
	for layer, want := range map[string]float64{
		"core": 0.3, "runtime": 0.5, "encoding_json": 0.1, "other": 0.1, "eventq": 0,
	} {
		if got := c.share(layer); math.Abs(got-want) > 1e-12 {
			t.Errorf("share(%s) = %v, want %v", layer, got, want)
		}
	}
	var sum float64
	for _, l := range shareLayers {
		sum += c.share(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares over every layer sum to %v, want 1", sum)
	}
	if (cpuShares{}).share("core") != 0 {
		t.Error("share without samples is not 0")
	}
	if err := c.add([]byte("not a profile")); err == nil {
		t.Error("add accepted garbage")
	}
}
