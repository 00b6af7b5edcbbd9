package metrics

import "testing"

func TestRecallTally(t *testing.T) {
	var r RecallTally
	rel := map[string]struct{}{"a": {}, "b": {}}
	r.Observe([]string{"x", "a"}, rel) // hit
	r.Observe([]string{"x", "y"}, rel) // miss
	r.Add(true)
	r.Add(false)
	if r.Total() != 4 {
		t.Errorf("Total = %d", r.Total())
	}
	if r.Recall() != 0.5 {
		t.Errorf("Recall = %v", r.Recall())
	}
	var empty RecallTally
	if empty.Recall() != 0 {
		t.Error("empty Recall != 0")
	}
}

func TestAccuracyTally(t *testing.T) {
	var a AccuracyTally
	a.Observe(true)
	a.Observe(true)
	a.Observe(false)
	if a.Accuracy() < 0.66 || a.Accuracy() > 0.67 {
		t.Errorf("Accuracy = %v", a.Accuracy())
	}
	if a.Correct() != 2 || a.Total() != 3 {
		t.Errorf("Correct/Total = %d/%d", a.Correct(), a.Total())
	}
	var empty AccuracyTally
	if empty.Accuracy() != 0 {
		t.Error("empty Accuracy != 0")
	}
}
