package textutil

import (
	"testing"
	"testing/quick"
)

func TestJaccard(t *testing.T) {
	a := []string{"x", "y", "z"}
	b := []string{"y", "z", "w"}
	if got := Jaccard(a, b); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("Jaccard(nil, nil) = %v, want 1", got)
	}
	if got := Jaccard(a, nil); got != 0 {
		t.Errorf("Jaccard(a, nil) = %v, want 0", got)
	}
	// Duplicates are set-collapsed.
	if got := Jaccard([]string{"x", "x"}, []string{"x"}); got != 1 {
		t.Errorf("Jaccard multiset = %v, want 1", got)
	}
}

func TestJaccardProperties(t *testing.T) {
	inRange := func(a, b []string) bool {
		j := Jaccard(a, b)
		return j >= 0 && j <= 1
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Errorf("range: %v", err)
	}
	symmetric := func(a, b []string) bool { return Jaccard(a, b) == Jaccard(b, a) }
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
}

func TestContainmentSimilarity(t *testing.T) {
	a := []string{"x", "y"}
	b := []string{"x", "y", "z", "w"}
	if got := ContainmentSimilarity(a, b); got != 1 {
		t.Errorf("Containment full = %v, want 1", got)
	}
	if got := ContainmentSimilarity(b, a); got != 0.5 {
		t.Errorf("Containment half = %v, want 0.5", got)
	}
	if got := ContainmentSimilarity(nil, b); got != 0 {
		t.Errorf("Containment empty query = %v, want 0", got)
	}
	// Duplicate query tokens count once.
	if got := ContainmentSimilarity([]string{"x", "x", "q"}, []string{"x"}); got != 0.5 {
		t.Errorf("Containment dup = %v, want 0.5", got)
	}
}
