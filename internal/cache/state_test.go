package cache

import (
	"testing"
	"time"

	"cablevod/internal/trace"
)

// TestMapStageStatesRestoreOldForm: snapshots written before the sorted
// form carry the stages' maps; they still restore.
func TestMapStageStatesRestoreOldForm(t *testing.T) {
	type oldRecency2State struct {
		Last map[trace.ProgramID]time.Duration
		Prev map[trace.ProgramID]time.Duration
	}
	blob, err := encodeStage(&oldRecency2State{
		Last: map[trace.ProgramID]time.Duration{1: 5 * time.Hour, 2: 3 * time.Hour},
		Prev: map[trace.ProgramID]time.Duration{1: 2 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewRecency2Scorer(time.Hour)
	if err := sc.(stageSnapshotter).restoreStage(blob); err != nil {
		t.Fatal(err)
	}
	if got := sc.Score(1, 0); got != 3 {
		t.Errorf("program 1 scores %d, want 3 (penultimate reference in hour 2)", got)
	}
	if got := sc.Score(2, 0); got != 0 {
		t.Errorf("program 2 scores %d, want 0 (one reference)", got)
	}
	sc.OnRequest(2, 6*time.Hour) // the restored last reference becomes the penultimate
	if got := sc.Score(2, 0); got != 4 {
		t.Errorf("program 2 scores %d after a request, want 4", got)
	}

	type oldSecondTouchState struct {
		Seen map[trace.ProgramID]uint8
	}
	blob, err = encodeStage(&oldSecondTouchState{Seen: map[trace.ProgramID]uint8{7: 1, 8: 2}})
	if err != nil {
		t.Fatal(err)
	}
	adm := NewSecondTouchAdmission()
	if err := adm.(stageSnapshotter).restoreStage(blob); err != nil {
		t.Fatal(err)
	}
	if adm.ShouldAdmit(7, 0, 0) || !adm.ShouldAdmit(8, 0, 0) {
		t.Errorf("restored touches: program 7 admitted %v (want false), 8 admitted %v (want true)",
			adm.ShouldAdmit(7, 0, 0), adm.ShouldAdmit(8, 0, 0))
	}
}
