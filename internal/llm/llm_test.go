package llm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/table"
)

func TestCompleteTupleAccuracyConverges(t *testing.T) {
	g := NewGenerator(1)
	const n = 5000
	correct := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("fact-%d", i)
		got := g.CompleteTuple(key, "truth", []string{"alt1", "alt2", "truth"})
		if got == "truth" {
			correct++
		}
	}
	acc := float64(correct) / n
	if math.Abs(acc-DefaultTupleAccuracy) > 0.02 {
		t.Errorf("tuple accuracy = %v, want ~%v", acc, DefaultTupleAccuracy)
	}
}

func TestCompleteTupleDeterministic(t *testing.T) {
	g1 := NewGenerator(7)
	g2 := NewGenerator(7)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if g1.CompleteTuple(key, "v", []string{"a", "b"}) != g2.CompleteTuple(key, "v", []string{"a", "b"}) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestCompleteTupleWrongValuesAreInDomain(t *testing.T) {
	g := NewGenerator(2)
	g.tupleAccuracy = 0 // always hallucinate
	alts := []string{"x", "y", "truth", ""}
	for i := 0; i < 200; i++ {
		got := g.CompleteTuple(fmt.Sprintf("k%d", i), "truth", alts)
		if got == "truth" || got == "" {
			t.Fatalf("hallucination produced %q", got)
		}
		if got != "x" && got != "y" {
			t.Fatalf("hallucination out of domain: %q", got)
		}
	}
}

func TestCompleteTupleFabricatesWithoutAlternatives(t *testing.T) {
	g := NewGenerator(3)
	g.tupleAccuracy = 0
	got := g.CompleteTuple("k", "1994", nil)
	if got == "1994" {
		t.Error("fabricated value equals truth")
	}
	if _, err := fmt.Sscanf(got, "%d", new(int)); err != nil {
		t.Errorf("numeric truth fabricated non-numeric %q", got)
	}
	// String truth gets a marker suffix.
	got = g.CompleteTuple("k2", "some name", nil)
	if got == "some name" {
		t.Error("string fabrication equals truth")
	}
	// Empty truth.
	if got := g.CompleteTuple("k3", "", nil); got != "unknown" {
		t.Errorf("empty truth fabricated %q", got)
	}
}

func TestJudgeClaimAccuracyConverges(t *testing.T) {
	g := NewGenerator(4)
	const n = 5000
	correct := 0
	for i := 0; i < n; i++ {
		label := i%2 == 0
		if g.JudgeClaim(fmt.Sprintf("c%d", i), label) == label {
			correct++
		}
	}
	acc := float64(correct) / n
	if math.Abs(acc-DefaultClaimAccuracy) > 0.02 {
		t.Errorf("claim accuracy = %v, want ~%v", acc, DefaultClaimAccuracy)
	}
}

func TestShiftDigits(t *testing.T) {
	if got := shiftDigits("1994", 3); got != "1997" {
		t.Errorf("shiftDigits = %q", got)
	}
	if got := shiftDigits("week 7 result", 2); got != "week 9 result" {
		t.Errorf("shiftDigits embedded = %q", got)
	}
	if got := shiftDigits("no digits", 2); got != "no digits ii" {
		t.Errorf("shiftDigits fallback = %q", got)
	}
}

func TestPromptTemplates(t *testing.T) {
	tbl := table.New("t", "my table", []string{"a", "b"})
	tbl.MustAppendRow("1", table.Missing)
	p := TupleCompletionPrompt(tbl)
	for _, want := range []string{"Question:", "my table", "NaN", "Please fill the missing values"} {
		if !strings.Contains(p, want) {
			t.Errorf("tuple prompt missing %q:\n%s", want, p)
		}
	}
}
