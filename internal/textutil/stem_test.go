package textutil

import (
	"testing"
	"testing/quick"
)

// TestStemKnownVectors checks representative Porter-stemmer outputs drawn
// from the algorithm's published examples.
func TestStemKnownVectors(t *testing.T) {
	tests := []struct{ in, want string }{
		// Step 1a.
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"caress", "caress"},
		{"cats", "cat"},
		// Step 1b.
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		// Step 1b cleanup.
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		// Step 1c.
		{"happy", "happi"},
		{"sky", "sky"},
		// Step 2.
		{"relational", "relat"},
		{"conditional", "condit"},
		{"valenci", "valenc"},
		{"hesitanci", "hesit"},
		{"digitizer", "digit"},
		{"operator", "oper"},
		// Step 3.
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		// Step 4.
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		// Step 5.
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
		// Short words unchanged.
		{"a", "a"},
		{"as", "as"},
		{"the", "the"},
	}
	for _, tc := range tests {
		if got := Porter(tc.in); got != tc.want {
			t.Errorf("Porter(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestStemSharedStems checks that inflections collapse to a common stem,
// which is the property the index actually relies on.
func TestStemSharedStems(t *testing.T) {
	groups := [][]string{
		{"run", "running", "runs"},
		{"connect", "connected", "connecting", "connection", "connections"},
		{"verify", "verified", "verifies"},
		{"retrieve", "retrieved", "retrieves", "retrieving"},
	}
	for _, g := range groups {
		stem := Porter(g[0])
		for _, w := range g[1:] {
			if got := Porter(w); got != stem {
				t.Errorf("Porter(%q) = %q, want %q (same as %q)", w, got, stem, g[0])
			}
		}
	}
}

// TestStemNeverGrows: the Porter stemmer never lengthens a word (it only
// removes or shortens suffixes; the +e rules fire after longer removals).
func TestStemNeverGrows(t *testing.T) {
	f := func(s string) bool {
		// Restrict to plausible lowercase word inputs.
		word := Fold(s)
		if len(word) == 0 || len(word) > 50 {
			return true
		}
		for _, r := range word {
			if r < 'a' || r > 'z' {
				return true
			}
		}
		return len(Porter(word)) <= len(word)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStemDeterministic: the stemmer is a pure function — identical inputs
// produce identical outputs (the property single-pass indexing relies on;
// note Porter is NOT idempotent: "congressional" → "congression" →
// "congress" on a second pass, faithfully to the original algorithm).
func TestStemDeterministic(t *testing.T) {
	words := []string{
		"congressional", "district", "incumbent", "elected", "player",
		"country", "money", "tournament", "filmography", "attendance",
		"championship", "climate", "precipitation", "companies",
	}
	for _, w := range words {
		if Porter(w) != Porter(w) {
			t.Errorf("Porter(%q) is not deterministic", w)
		}
	}
	if got := Porter("congressional"); got != "congression" {
		t.Errorf("Porter(congressional) = %q, want congression", got)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "they"} {
		if !isStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"golf", "district", "money", ""} {
		if isStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}
