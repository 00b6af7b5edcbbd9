package trust

import (
	"fmt"
	"testing"
)

// makeVotes builds votes where good sources assert the true value "T" on
// every item and bad sources assert "F" on a fraction of items.
func makeVotes(goodSources, badSources, items int) []Vote {
	var votes []Vote
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("item-%d", i)
		for g := 0; g < goodSources; g++ {
			votes = append(votes, Vote{SourceID: fmt.Sprintf("good-%d", g), ItemID: item, Value: "T"})
		}
		for b := 0; b < badSources; b++ {
			votes = append(votes, Vote{SourceID: fmt.Sprintf("bad-%d", b), ItemID: item, Value: "F"})
		}
	}
	return votes
}

func TestEstimateSeparatesSources(t *testing.T) {
	// 3 good sources vs 1 bad: consensus finds the truth, good sources get
	// high trust, the bad one low.
	votes := makeVotes(3, 1, 50)
	trusts := Estimate(votes, nil)
	for g := 0; g < 3; g++ {
		if trusts[fmt.Sprintf("good-%d", g)] < 0.9 {
			t.Errorf("good-%d trust = %v", g, trusts[fmt.Sprintf("good-%d", g)])
		}
	}
	if trusts["bad-0"] > 0.1 {
		t.Errorf("bad-0 trust = %v", trusts["bad-0"])
	}
}

func TestEstimatePriorsBreakSymmetry(t *testing.T) {
	// 1 good vs 1 bad is symmetric; priors must break the tie toward the
	// trusted source.
	votes := makeVotes(1, 1, 50)
	trusts := Estimate(votes, map[string]float64{"good-0": 0.8, "bad-0": 0.2})
	if trusts["good-0"] <= trusts["bad-0"] {
		t.Errorf("priors ignored: good=%v bad=%v", trusts["good-0"], trusts["bad-0"])
	}
}

func TestEstimateClamping(t *testing.T) {
	votes := makeVotes(3, 1, 20)
	trusts := Estimate(votes, nil)
	for src, tr := range trusts {
		if tr < 0.05-1e-9 || tr > 0.95+1e-9 {
			t.Errorf("trust %s = %v outside clamp", src, tr)
		}
	}
}

func TestEstimateUnvotedSourceKeepsPrior(t *testing.T) {
	votes := makeVotes(2, 0, 10)
	trusts := Estimate(votes, map[string]float64{"silent": 0.7})
	if got := trusts["silent"]; got != 0.7 {
		t.Errorf("silent source trust = %v, want 0.7", got)
	}
}

func TestEstimateEmptyVotes(t *testing.T) {
	trusts := Estimate(nil, nil)
	if len(trusts) != 0 {
		t.Errorf("empty votes produced %v", trusts)
	}
}

func TestWeightedVerdict(t *testing.T) {
	label, share := WeightedVerdict(map[string][]float64{
		"Verified": {0.9},
		"Refuted":  {0.2, 0.2},
	})
	if label != "Verified" {
		t.Errorf("label = %q", label)
	}
	if share <= 0.5 || share > 1 {
		t.Errorf("share = %v", share)
	}
}

func TestWeightedVerdictMajorityWithEqualTrust(t *testing.T) {
	label, _ := WeightedVerdict(map[string][]float64{
		"Verified": {0.5},
		"Refuted":  {0.5, 0.5},
	})
	if label != "Refuted" {
		t.Errorf("equal-trust majority = %q", label)
	}
}

func TestWeightedVerdictZeroTrustDefaults(t *testing.T) {
	// Zero trust values count as 0.5, not as zero weight.
	label, share := WeightedVerdict(map[string][]float64{"Verified": {0}})
	if label != "Verified" || share != 1 {
		t.Errorf("zero-trust vote = %q, %v", label, share)
	}
}

func TestWeightedVerdictDeterministicTie(t *testing.T) {
	// Exact tie: lexicographically smaller label wins, consistently.
	for i := 0; i < 10; i++ {
		label, _ := WeightedVerdict(map[string][]float64{
			"Verified": {0.5},
			"Refuted":  {0.5},
		})
		if label != "Refuted" {
			t.Fatalf("tie-break = %q", label)
		}
	}
}

func TestWeightedVerdictEmpty(t *testing.T) {
	label, share := WeightedVerdict(nil)
	if label != "" || share != 0 {
		t.Errorf("empty votes = %q, %v", label, share)
	}
}

func TestEstimateConvergence(t *testing.T) {
	// With a single dominant source group the estimate must stabilize well
	// before maxRounds; re-running yields identical values (fixed point).
	votes := makeVotes(4, 2, 100)
	a := estimate(votes, nil, 50)
	b := estimate(votes, nil, 5)
	for src := range a {
		if diff := a[src] - b[src]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("estimate unstable for %s: %v vs %v", src, a[src], b[src])
		}
	}
}
