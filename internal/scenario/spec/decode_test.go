package spec

import (
	"reflect"
	"testing"
	"time"

	"cablevod/internal/adversity"
	"cablevod/internal/scenario"
	"cablevod/internal/units"
)

// everyFieldSpec sets every field the grammar accepts, each optional
// one included: every base and engine knob, every modulator and fault
// kind with all of its optional fields (and a fault with its
// neighborhood left out), threshold predicates under all four ops in
// window and phase scope, a recovery predicate, durations in day, hour,
// minute, second and mixed forms, float knobs at full float64
// precision, and names that need quoting.
const everyFieldSpec = `
# Every field the spec grammar accepts.
name: "with: colon"
description: "hash # inside"
scale: quick
checkpoint: 12h
chunk: 1d6h
base:
  subscribers: 9999
  catalog: 4321
  days: 29
  seed: 9223372036854775807
  sessions_per_user_day: 3.0000000000000004
  backlog_days: 199
  zipf_exponent: 0.7071067811865476
  weekend_boost: 1.25
  seek_prob: 1e-9
engine:
  strategy: global-lfu
  neighborhood: 1999
  per_peer_storage: 64 GB
  coax_capacity: 9 Gb/s
  max_streams: 7
  replicas: 3
  prefix_segments: 9
  fill: on-broadcast
  lfu_history: 14d
  global_lag: 1h23m20s
  warmup_days: 0
phases:
  - name: "3.14"
    from: 1d
    to: 72h
    modulators:
      - kind: flash-crowd
        program: 499
        factor: 50.5
        rate_boost: 1.9999999999999998
        local: true
        neighborhood: 7
      - kind: flash-crowd
        program: 0
      - kind: premiere
        hotness: 4.75
        length: 36h
      - kind: intensity-shift
        scale: 2.5
        weekend_scale: 0.1
        hour_scale: [0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2, 2.1, 2.2, 2.3]
      - kind: churn
        cancel_fraction: 0.3333333333333333
        joins: 999
        seed: 9223372036854775806
      - kind: skew-drift
        strength: 1.5
        period: 90m
        seed: 42
    faults:
      - kind: node_failure
        at: 1d
        neighborhood: 3
        fraction: 0.95
        ramp_hours: 5
        restore_at: 2d12h
        seed: 7
      - kind: cold_restart
        at: 30h
      - kind: coax_degrade
        at: 1d1h
        neighborhood: 0
        factor: 0.05
        restore_at: 1d2h
      - kind: hetero_cache
        at: 1s
        neighborhood: 8
        min: 1GB
        max: 9.5 GB
        seed: 11
  - name: "true"
    from: 2d
    to: 3d
    modulators:
      - kind: premiere
        hotness: 1
        length: 5000s
assert:
  - name: "null"
    type: threshold
    metric: hit_ratio
    op: ">="
    value: 0.1
    window: {from: 1d, to: 2d}
  - type: threshold
    metric: window_hit_ratio
    op: "<="
    value: 0.9
    phase: "3.14"
  - name: "it's quoted"
    type: threshold
    metric: hit_ratio
    op: ">"
    value: 0
    window: {from: 36h, to: 5000s}
  - name: 'she said "hi"'
    type: threshold
    metric: hit_ratio
    op: "<"
    value: 1.0000000000000002
    phase: "true"
  - name: "- leading dash"
    type: recovery
    metric: window_hit_ratio
    phase: "3.14"
    within: 4999s
    tolerance: 0.05
`

// TestParseEveryField parses everyFieldSpec and compares the result
// with the File it spells out, field for field.
func TestParseEveryField(t *testing.T) {
	warmup := 0
	hourScale := []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.1,
		1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2, 2.1, 2.2, 2.3}
	want := &File{
		Name:        "with: colon",
		Description: "hash # inside",
		Scale:       "quick",
		Checkpoint:  12 * time.Hour,
		Chunk:       30 * time.Hour,
		Base: Base{
			Subscribers:        9999,
			Catalog:            4321,
			Days:               29,
			Seed:               1<<63 - 1,
			SessionsPerUserDay: 3.0000000000000004,
			BacklogDays:        199,
			ZipfExponent:       0.7071067811865476,
			WeekendBoost:       1.25,
			SeekProb:           1e-9,
		},
		Engine: Engine{
			Strategy:       "global-lfu",
			Neighborhood:   1999,
			PerPeerStorage: 64 * units.GB,
			CoaxCapacity:   9 * units.Gbps,
			MaxStreams:     7,
			Replicas:       3,
			PrefixSegments: 9,
			Fill:           "on-broadcast",
			LFUHistory:     14 * units.Day,
			GlobalLag:      5000 * time.Second,
			WarmupDays:     &warmup,
		},
		Phases: []PhaseSpec{
			{
				Name: "3.14",
				From: units.Day,
				To:   72 * time.Hour,
				Modulators: []scenario.Modulator{
					scenario.FlashCrowd{Program: 499, Factor: 50.5, RateBoost: 1.9999999999999998, Local: true, Neighborhood: 7},
					scenario.FlashCrowd{},
					scenario.Premiere{Hotness: 4.75, Length: 36 * time.Hour},
					scenario.IntensityShift{Scale: 2.5, WeekendScale: 0.1, HourScale: hourScale},
					scenario.Churn{CancelFraction: 0.3333333333333333, Joins: 999, Seed: 1<<63 - 2},
					scenario.SkewDrift{Strength: 1.5, Period: 90 * time.Minute, Seed: 42},
				},
				Faults: []scenario.Fault{
					adversity.NodeFailure{At: units.Day, Neighborhood: 3, Fraction: 0.95, RampHours: 5, RestoreAt: 60 * time.Hour, Seed: 7},
					adversity.ColdRestart{At: 30 * time.Hour, Neighborhood: -1},
					adversity.CoaxDegrade{At: 25 * time.Hour, Neighborhood: 0, Factor: 0.05, RestoreAt: 26 * time.Hour},
					adversity.HeteroCache{At: time.Second, Neighborhood: 8, Min: units.GB, Max: 9500 * units.MB, Seed: 11},
				},
			},
			{
				Name:       "true",
				From:       2 * units.Day,
				To:         3 * units.Day,
				Modulators: []scenario.Modulator{scenario.Premiere{Hotness: 1, Length: 5000 * time.Second}},
			},
		},
		Assert: []Predicate{
			{Name: "null", Type: TypeThreshold, Metric: "hit_ratio", Op: ">=", Value: 0.1,
				Window: &Window{From: units.Day, To: 2 * units.Day}},
			{Type: TypeThreshold, Metric: "window_hit_ratio", Op: "<=", Value: 0.9, Phase: "3.14"},
			{Name: "it's quoted", Type: TypeThreshold, Metric: "hit_ratio", Op: ">", Value: 0,
				Window: &Window{From: 36 * time.Hour, To: 5000 * time.Second}},
			{Name: `she said "hi"`, Type: TypeThreshold, Metric: "hit_ratio", Op: "<", Value: 1.0000000000000002, Phase: "true"},
			{Name: "- leading dash", Type: TypeRecovery, Metric: "window_hit_ratio", Phase: "3.14",
				Within: 4999 * time.Second, Tolerance: 0.05},
		},
	}
	got, err := Parse([]byte(everyFieldSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed File differs:\n got: %+v\nwant: %+v", got, want)
	}
}
