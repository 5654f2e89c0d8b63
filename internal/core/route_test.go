package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cablevod/internal/eventq"
	"cablevod/internal/trace"
)

// TestSubmitRejectsRecordsPastTimeLimit: a record whose session would
// end at or past the event queue's time limit is rejected at routing,
// by Submit and by SubmitBatch, with the engine state untouched — and
// the engine still closes cleanly. The end is computed without
// overflow: a start near MaxInt64 with a short duration is rejected too,
// rather than reaching the hour-bucket rate meters at the next drain,
// and an end past MaxInt64 fails the record's own validation.
func TestSubmitRejectsRecordsPastTimeLimit(t *testing.T) {
	tr := shardTestTrace(t, 1)
	sys, err := NewSystem(shardTestConfig(StrategyLFU, FillImmediate, 4), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	half := tr.Records[:len(tr.Records)/2]
	if err := sys.SubmitBatch(half); err != nil {
		t.Fatal(err)
	}
	last := half[len(half)-1]
	before := sys.Snapshot()
	for _, tc := range []struct {
		name            string
		start, duration time.Duration
		reason          string
	}{
		{"start near MaxInt64", math.MaxInt64 - time.Hour, 30 * time.Minute, "time limit"},
		{"ends at the limit", eventq.TimeLimit - time.Hour, time.Hour, "time limit"},
		{"end overflows", eventq.TimeLimit - time.Hour, math.MaxInt64, "end overflows"},
	} {
		hostile := trace.Record{User: last.User, Program: last.Program, Start: tc.start, Duration: tc.duration}
		err := sys.SubmitBatch([]trace.Record{last, hostile})
		if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: SubmitBatch error = %v, want record 1 refused (%s)", tc.name, err, tc.reason)
		}
		if err := sys.Submit(hostile); err == nil {
			t.Errorf("%s: Submit accepted the record", tc.name)
		}
		if after := sys.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: rejected record changed the engine state", tc.name)
		}
	}
	if _, err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
