package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// recordingPolicy wraps a Pipeline, capturing the candidate value and
// the victim yields of each admission attempt so the property suite can
// check the victim-value rule against what the Cache actually did.
type recordingPolicy struct {
	p         *Pipeline
	candidate int
	hasCand   bool
	yields    []struct {
		p trace.ProgramID
		v int
	}
}

func (r *recordingPolicy) Name() string                                   { return r.p.Name() }
func (r *recordingPolicy) Advance(now time.Duration)                      { r.p.Advance(now) }
func (r *recordingPolicy) OnRequest(p trace.ProgramID, now time.Duration) { r.p.OnRequest(p, now) }
func (r *recordingPolicy) OnAdmit(p trace.ProgramID, now time.Duration)   { r.p.OnAdmit(p, now) }
func (r *recordingPolicy) OnEvict(p trace.ProgramID)                      { r.p.OnEvict(p) }

func (r *recordingPolicy) CandidateValue(p trace.ProgramID, now time.Duration) int {
	v := r.p.CandidateValue(p, now)
	r.candidate, r.hasCand = v, true
	return v
}

func (r *recordingPolicy) ShouldAdmit(p trace.ProgramID, size units.ByteSize, now time.Duration) bool {
	return r.p.ShouldAdmit(p, size, now)
}

func (r *recordingPolicy) EvictionOrder(yield func(p trace.ProgramID, value int) bool) {
	r.yields = r.yields[:0]
	r.p.EvictionOrder(func(p trace.ProgramID, v int) bool {
		r.yields = append(r.yields, struct {
			p trace.ProgramID
			v int
		}{p, v})
		return yield(p, v)
	})
}

// pipelineCompositions enumerates the stage combinations the property
// suite drives: every scorer crossed with every admission filter and
// both tiebreaks.
func pipelineCompositions(t *testing.T) map[string]func() *Pipeline {
	t.Helper()
	mk := func(cfg PipelineConfig) *Pipeline {
		pl, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	scorers := map[string]func() Scorer{
		"const": func() Scorer { return NewConstantScorer("recency-only", 0) },
		"freq": func() Scorer {
			s, err := NewFrequencyScorer(6 * time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"recency2": func() Scorer {
			s, err := NewRecency2Scorer(time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"size-freq": func() Scorer {
			s, err := NewSizeFrequencyScorer(6*time.Hour, func(p trace.ProgramID) int { return int(p%7) + 1 })
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	admissions := map[string]func() Admission{
		"none":         func() Admission { return nil },
		"second-touch": func() Admission { return NewSecondTouchAdmission() },
		"size-cap": func() Admission {
			a, err := NewSizeCapAdmission(40 * units.MB)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
	out := make(map[string]func() *Pipeline)
	for sn, sc := range scorers {
		for an, ad := range admissions {
			for _, tb := range []Tiebreak{TiebreakLRU, TiebreakFIFO} {
				sn, sc, an, ad, tb := sn, sc, an, ad, tb
				name := fmt.Sprintf("%s/%s/%v", sn, an, tb)
				out[name] = func() *Pipeline {
					return mk(PipelineConfig{Name: name, Scorer: sc(), Admission: ad(), Tiebreak: tb})
				}
			}
		}
	}
	return out
}

// TestPipelineInvariants drives every stage composition with randomized
// workloads and asserts the Cache contract holds throughout:
//
//   - the cache never exceeds its byte capacity, and its accounting
//     matches an independent model of admissions minus evictions;
//   - admission honors the victim-value rule: every evicted victim's
//     value is at most the candidate's value, in yield order;
//   - the eviction order is a permutation of the cached set.
func TestPipelineInvariants(t *testing.T) {
	const (
		capacity = 200 * units.MB
		programs = 40
		accesses = 3000
	)
	sizeOf := func(p trace.ProgramID) units.ByteSize {
		return units.ByteSize(p%11+1) * 10 * units.MB // 10-110 MB, some > size-cap, none > capacity
	}

	for name, build := range pipelineCompositions(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				rec := &recordingPolicy{p: build()}
				c, err := New(capacity, rec)
				if err != nil {
					t.Fatal(err)
				}

				model := make(map[trace.ProgramID]units.ByteSize)
				now := time.Duration(0)
				for i := 0; i < accesses; i++ {
					now += time.Duration(rng.Intn(30)) * time.Minute
					p := trace.ProgramID(rng.Intn(programs) + 1)
					rec.hasCand = false

					res := c.Access(p, sizeOf(p), now)

					// Model bookkeeping mirrors the reported result.
					if res.Hit {
						if _, ok := model[p]; !ok {
							t.Fatalf("access %d: hit on unmodeled program %d", i, p)
						}
					}
					for _, v := range res.Evicted {
						if _, ok := model[v]; !ok {
							t.Fatalf("access %d: evicted unmodeled program %d", i, v)
						}
						delete(model, v)
					}
					if res.Admitted {
						model[p] = sizeOf(p)
					}

					// Capacity and accounting.
					if c.Used() > c.Capacity() {
						t.Fatalf("access %d: used %v exceeds capacity %v", i, c.Used(), c.Capacity())
					}
					var want units.ByteSize
					for _, s := range model {
						want += s
					}
					if c.Used() != want {
						t.Fatalf("access %d: used %v, model %v", i, c.Used(), want)
					}

					// Victim-value rule, in yield order.
					if len(res.Evicted) > 0 {
						if !rec.hasCand {
							t.Fatalf("access %d: evictions without a candidate comparison", i)
						}
						for j, v := range res.Evicted {
							if rec.yields[j].p != v {
								t.Fatalf("access %d: victim %d is %d, but yield %d was %d",
									i, j, v, j, rec.yields[j].p)
							}
							if rec.yields[j].v > rec.candidate {
								t.Fatalf("access %d: victim %d value %d exceeds candidate %d",
									i, v, rec.yields[j].v, rec.candidate)
							}
						}
					}

					// Eviction order is a permutation of the cached set.
					if i%97 == 0 || len(res.Evicted) > 0 {
						order := c.Contents()
						if len(order) != len(model) {
							t.Fatalf("access %d: eviction order has %d programs, cached set %d",
								i, len(order), len(model))
						}
						seen := make(map[trace.ProgramID]bool, len(order))
						for _, p := range order {
							if seen[p] {
								t.Fatalf("access %d: program %d yielded twice", i, p)
							}
							seen[p] = true
							if _, ok := model[p]; !ok {
								t.Fatalf("access %d: eviction order yields uncached program %d", i, p)
							}
						}
					}
				}
			})
		}
	}
}

// TestSecondTouchAdmission pins the bypass-on-first-touch semantics:
// the first request of a program never admits, the second does.
func TestSecondTouchAdmission(t *testing.T) {
	sc := NewConstantScorer("recency-only", 0)
	pl, err := NewPipeline(PipelineConfig{Name: "lru-2touch", Scorer: sc, Admission: NewSecondTouchAdmission()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(units.GB, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Access(1, units.MB, 0); res.Admitted {
		t.Error("first touch admitted")
	}
	if res := c.Access(1, units.MB, time.Minute); !res.Admitted {
		t.Error("second touch not admitted")
	}
	if res := c.Access(1, units.MB, 2*time.Minute); !res.Hit {
		t.Error("third touch not a hit")
	}
}

// TestTiebreakFIFO pins what each tiebreak keeps within a score. Under
// a constant scorer, FIFO keeps insertion order: requests do not
// refresh recency, so equal-scored programs evict oldest-first even
// when the oldest was just re-requested. Under a frequency scorer a
// request raises the program's count, which moves it to the
// most-recent end of its new score's group, so FIFO orders equal
// scores by last request, as LRU does.
func TestTiebreakFIFO(t *testing.T) {
	type access struct {
		p  trace.ProgramID
		at time.Duration
	}
	cases := []struct {
		name   string
		scorer func() Scorer
		// accesses fill a 2-program cache; the last one must admit by
		// evicting one program.
		accesses []access
		// evicted is the victim by tiebreak.
		evicted map[Tiebreak]trace.ProgramID
	}{{
		name:   "constant",
		scorer: func() Scorer { return NewConstantScorer("recency-only", 0) },
		accesses: []access{
			{1, 0}, {2, time.Minute},
			{1, 2 * time.Minute}, // refreshes 1 under LRU only
			{3, 3 * time.Minute},
		},
		// LRU: 2 is least recent. FIFO: 1 was inserted first.
		evicted: map[Tiebreak]trace.ProgramID{TiebreakLRU: 2, TiebreakFIFO: 1},
	}, {
		name: "frequency",
		scorer: func() Scorer {
			sc, err := NewFrequencyScorer(24 * time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			return sc
		},
		accesses: []access{
			{1, 0}, {2, time.Minute},
			{2, 2 * time.Minute}, {1, 3 * time.Minute}, // both count 2, 1 last
			{3, 4 * time.Minute}, // count 1: refused
			{3, 5 * time.Minute}, // count 2: ties admit
		},
		// Both: 2 was requested least recently, though 1 was inserted
		// first.
		evicted: map[Tiebreak]trace.ProgramID{TiebreakLRU: 2, TiebreakFIFO: 2},
	}}
	for _, tc := range cases {
		for _, tb := range []Tiebreak{TiebreakLRU, TiebreakFIFO} {
			pl, err := NewPipeline(PipelineConfig{Name: "tb", Scorer: tc.scorer(), Tiebreak: tb})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(2*units.MB, pl)
			if err != nil {
				t.Fatal(err)
			}
			var res AccessResult
			for _, a := range tc.accesses {
				res = c.Access(a.p, units.MB, a.at)
			}
			if !res.Admitted || len(res.Evicted) != 1 {
				t.Fatalf("%s/%v: last admission = %+v, want 1 eviction", tc.name, tb, res)
			}
			if want := tc.evicted[tb]; res.Evicted[0] != want {
				t.Errorf("%s/%v: evicted %d, want %d", tc.name, tb, res.Evicted[0], want)
			}
		}
	}
}

// TestPipelineEntryPointsAdvance pins that CandidateValue and OnAdmit,
// called outside Cache.Access, read the score at their own instant:
// each advances the scorer to now before it reads.
func TestPipelineEntryPointsAdvance(t *testing.T) {
	cases := []struct {
		name          string
		pipeline      func() (*Pipeline, *Global)
		requested, at time.Duration
		want          int
	}{
		// The 30 min publication, synced at 31 min, makes the 1 min
		// request visible.
		{"global-lfu 30m lag", func() (*Pipeline, *Global) {
			g := mustGlobal(t, 24*time.Hour, 30*time.Minute)
			return newGlobalLFU(t, g), g
		}, time.Minute, 31 * time.Minute, 1},
		// A 1 h history forgets the request by 2 h.
		{"lfu 1h history", func() (*Pipeline, *Global) { return newLFU(t, time.Hour), nil }, 0, 2 * time.Hour, 0},
	}
	for _, tc := range cases {
		request := func() *Pipeline {
			pl, g := tc.pipeline()
			pl.OnRequest(1, tc.requested)
			if g != nil {
				syncAt(g, tc.at)
			}
			return pl
		}
		pl := request()
		if got := pl.CandidateValue(1, tc.at); got != tc.want {
			t.Errorf("%s: CandidateValue = %d, want %d", tc.name, got, tc.want)
		}

		pl = request()
		pl.OnAdmit(1, tc.at)
		var scores []int
		pl.EvictionOrder(func(_ trace.ProgramID, v int) bool {
			scores = append(scores, v)
			return true
		})
		if len(scores) != 1 || scores[0] != tc.want {
			t.Errorf("%s: tracked scores after OnAdmit = %v, want [%d]", tc.name, scores, tc.want)
		}
	}
}

// TestPopularityPrefixPlanner pins the depth schedule: cold programs
// keep the base prefix, warming programs deepen, hot programs are whole.
func TestPopularityPrefixPlanner(t *testing.T) {
	freq, err := NewFrequencyScorer(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPopularityPrefixPlanner(freq, 3)
	if err != nil {
		t.Fatal(err)
	}
	def := Plan{PrefixSegments: 2, Replicas: 1}
	if got := planner.PlacementPlan(7, 0, def); got.PrefixSegments != 2 {
		t.Errorf("cold plan = %+v, want base prefix 2", got)
	}
	freq.OnRequest(7, time.Minute)
	freq.OnRequest(7, 2*time.Minute)
	if got := planner.PlacementPlan(7, 3*time.Minute, def); got.PrefixSegments != 6 {
		t.Errorf("warm plan = %+v, want prefix 6 after 2 accesses", got)
	}
	freq.OnRequest(7, 4*time.Minute)
	if got := planner.PlacementPlan(7, 5*time.Minute, def); got.PrefixSegments != 0 {
		t.Errorf("hot plan = %+v, want whole program at threshold", got)
	}
}

// TestNewPipelineValidation pins the assembly errors.
func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(PipelineConfig{Scorer: NewConstantScorer("x", 0)}); err == nil {
		t.Error("nameless pipeline accepted")
	}
	if _, err := NewPipeline(PipelineConfig{Name: "x"}); err == nil {
		t.Error("scorerless pipeline accepted")
	}
	if _, err := NewPipeline(PipelineConfig{Name: "x", Scorer: NewConstantScorer("x", 0), Tiebreak: Tiebreak(9)}); err == nil {
		t.Error("invalid tiebreak accepted")
	}
}
