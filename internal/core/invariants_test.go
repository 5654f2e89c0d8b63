package core

import (
	"testing"
	"time"

	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/units"
)

// TestSystemInvariants replays a synthetic workload under every strategy
// and fill mode and checks the conservation laws of the simulation:
// stream balance, storage bounds, and traffic accounting.
func TestSystemInvariants(t *testing.T) {
	scfg := synth.TestConfig()
	scfg.Users = 900
	scfg.Days = 3
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"lru immediate", Config{Strategy: StrategyLRU}},
		{"lfu immediate", Config{Strategy: StrategyLFU}},
		{"oracle immediate", Config{Strategy: StrategyOracle}},
		{"global immediate", Config{Strategy: StrategyGlobalLFU, GlobalLag: time.Hour}},
		{"lfu broadcast", Config{Strategy: StrategyLFU, Fill: FillOnBroadcast}},
		{"lru no-limit", Config{Strategy: StrategyLRU, DisablePeerStreamLimit: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Topology = hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB}
			sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SubmitBatch(tr.Records); err != nil {
				t.Fatal(err)
			}
			res, err := sys.Close()
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters

			if c.Hits+c.Misses() != c.SegmentRequests {
				t.Errorf("hits %d + misses %d != requests %d", c.Hits, c.Misses(), c.SegmentRequests)
			}
			if c.Sessions != uint64(tr.Len()) {
				t.Errorf("sessions %d != trace records %d", c.Sessions, tr.Len())
			}
			if res.ServerBits > res.DemandBits {
				t.Errorf("server bits %d exceed demand %d", res.ServerBits, res.DemandBits)
			}
			if c.Hits == 0 && res.ServerBits != res.DemandBits {
				t.Error("no hits but server carried less than demand")
			}

			// Stream balance: every open stream was released by the
			// time the queue drained.
			for _, nb := range sys.Topology().Neighborhoods() {
				for _, peer := range nb.Peers() {
					if got := peer.ActiveStreams(); got != 0 {
						t.Fatalf("peer %v leaked %d streams", peer.ID(), got)
					}
				}
				if rate := nb.Coax().Rate(); rate != 0 {
					t.Fatalf("neighborhood %d coax leaked %v", nb.ID(), rate)
				}
				// Storage bound: placed bytes never exceed the pool.
				var stored units.ByteSize
				for _, peer := range nb.Peers() {
					if peer.StorageUsed() > peer.StorageCapacity() {
						t.Fatalf("peer %v over capacity", peer.ID())
					}
					stored += peer.StorageUsed()
				}
				if stored > nb.TotalCacheCapacity() {
					t.Fatalf("neighborhood %d stored %v > pool %v", nb.ID(), stored, nb.TotalCacheCapacity())
				}
			}

			// Peak demand must be positive on any non-trivial workload.
			if res.Demand.Mean <= 0 {
				t.Error("zero demand")
			}
		})
	}
}

// TestSimulationTraceUnmodified ensures a run never mutates its input
// trace (runs share traces across sweeps).
func TestSimulationTraceUnmodified(t *testing.T) {
	scfg := synth.TestConfig()
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Clone()
	if _, err := Run(Config{
		Topology: hfc.Config{NeighborhoodSize: 200, PerPeerStorage: units.GB},
		Strategy: StrategyOracle,
	}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != before.Len() {
		t.Fatal("record count changed")
	}
	for i := range tr.Records {
		if tr.Records[i] != before.Records[i] {
			t.Fatalf("record %d mutated", i)
		}
	}
	for p, l := range before.ProgramLengths {
		if tr.ProgramLengths[p] != l {
			t.Fatalf("program %d length mutated", p)
		}
	}
}
