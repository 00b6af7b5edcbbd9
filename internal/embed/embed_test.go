package embed

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/textutil"
)

func TestVectorOps(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if Dot(a, b) != 0 {
		t.Error("Dot orthogonal != 0")
	}
	if Dot(a, a) != 1 {
		t.Error("Dot self != 1")
	}
	if Cosine(a, a) != 1 {
		t.Error("Cosine self != 1")
	}
	if Cosine(a, b) != 0 {
		t.Error("Cosine orthogonal != 0")
	}
	if L2Sq(a, b) != 2 {
		t.Error("L2Sq != 2")
	}
	if Norm(Vector{3, 4}) != 5 {
		t.Error("Norm != 5")
	}
	zero := Vector{0, 0, 0}
	if Cosine(a, zero) != 0 {
		t.Error("Cosine with zero vector != 0")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dot":  func() { Dot(Vector{1}, Vector{1, 2}) },
		"L2Sq": func() { L2Sq(Vector{1}, Vector{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	Normalize(v)
	if math.Abs(Norm(v)-1) > 1e-6 {
		t.Errorf("Normalize: norm = %v", Norm(v))
	}
	zero := Vector{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("Normalize mutated zero vector")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := Clone(v)
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestNewEmbedderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEmbedder(0) did not panic")
		}
	}()
	NewEmbedder(0, 1)
}

func TestTokenVectorDeterministic(t *testing.T) {
	e1 := NewEmbedder(32, 7)
	e2 := NewEmbedder(32, 7)
	a := e1.TokenVector("golf")
	b := e2.TokenVector("golf")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("token vectors differ across embedders with same seed")
		}
	}
	c := NewEmbedder(32, 8).TokenVector("golf")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("token vectors identical across different seeds")
	}
}

func TestTokenVectorUnitNorm(t *testing.T) {
	e := NewEmbedder(64, 1)
	for _, tok := range []string{"golf", "district", "money", "x"} {
		if n := Norm(e.TokenVector(tok)); math.Abs(n-1) > 1e-6 {
			t.Errorf("TokenVector(%q) norm = %v", tok, n)
		}
	}
}

func TestTokenVectorsNearOrthogonal(t *testing.T) {
	// Distinct tokens in a moderately high dimension should be nearly
	// orthogonal (|cos| < 0.5 is a very loose bound at dim 128).
	e := NewEmbedder(128, 1)
	tokens := []string{"golf", "election", "climate", "company", "album"}
	for i := range tokens {
		for j := i + 1; j < len(tokens); j++ {
			c := Cosine(e.TokenVector(tokens[i]), e.TokenVector(tokens[j]))
			if math.Abs(c) > 0.5 {
				t.Errorf("tokens %q/%q cosine %v", tokens[i], tokens[j], c)
			}
		}
	}
}

func TestEmbedText(t *testing.T) {
	e := NewEmbedder(64, 1)
	v := e.EmbedText("golf tournament prize money")
	if math.Abs(Norm(v)-1) > 1e-6 {
		t.Errorf("EmbedText norm = %v", Norm(v))
	}
	empty := e.EmbedText("")
	if Norm(empty) != 0 {
		t.Error("EmbedText(\"\") is not zero")
	}
	// Stopword-only text embeds to zero.
	stop := e.EmbedText("the of and is")
	if Norm(stop) != 0 {
		t.Error("stopword-only text is not zero")
	}
}

func TestEmbedTextSimilarityOrdering(t *testing.T) {
	e := NewEmbedder(128, 1)
	q := e.EmbedText("golf tournament springfield prize money")
	related := e.EmbedText("the springfield golf open had record prize money")
	unrelated := e.EmbedText("monthly precipitation and record low temperatures")
	if Cosine(q, related) <= Cosine(q, unrelated) {
		t.Errorf("related %v <= unrelated %v", Cosine(q, related), Cosine(q, unrelated))
	}
}

func TestEmbedTokens(t *testing.T) {
	e := NewEmbedder(32, 1)
	vecs := e.EmbedTokens("golf prize the")
	if len(vecs) != 2 { // "the" filtered
		t.Fatalf("EmbedTokens = %d vectors", len(vecs))
	}
	if e.EmbedTokens("") != nil {
		t.Error("EmbedTokens empty != nil")
	}
}

func TestEmbedTuple(t *testing.T) {
	e := NewEmbedder(64, 1)
	v1 := e.EmbedTuple("1954 open", []string{"player", "money"}, []string{"tommy bolt", "570"})
	v2 := e.EmbedTuple("1954 open", []string{"player", "money"}, []string{"tommy bolt", "570"})
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("EmbedTuple not deterministic")
		}
	}
	v3 := e.EmbedTuple("2001 season", []string{"week", "opponent"}, []string{"1", "riverton comets"})
	if Cosine(v1, v3) > Cosine(v1, v2) {
		t.Error("different tuples more similar than identical tuples")
	}
}

func TestFrequencyDamping(t *testing.T) {
	// Repeating a token must not dominate: sqrt damping keeps the rare
	// token's contribution visible.
	e := NewEmbedder(128, 1)
	spam := e.EmbedText("golf golf golf golf golf golf golf golf treasure")
	tv := e.TokenVector("treasur") // stemmed form of "treasure"
	if Dot(spam, tv) <= 0.05 {
		t.Errorf("rare token drowned out: dot = %v", Dot(spam, tv))
	}
}

func TestEmbedQuickProperties(t *testing.T) {
	e := NewEmbedder(32, 3)
	f := func(s string) bool {
		v := e.EmbedText(s)
		if len(v) != 32 {
			return false
		}
		n := Norm(v)
		// Either zero (no tokens) or unit.
		return n == 0 || math.Abs(n-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmbedTextsMatchesEmbedText(t *testing.T) {
	// The batch entry point must produce bitwise-identical vectors to the
	// single-text path, in order, at every worker count.
	e := NewEmbedder(64, 7)
	texts := make([]string, 17)
	for i := range texts {
		texts[i] = "document " + string(rune('a'+i)) + " about golf prize money records"
	}
	want := make([]Vector, len(texts))
	for i, s := range texts {
		want[i] = e.EmbedText(s)
	}
	for _, workers := range []int{0, 1, 4, 32} {
		got := e.EmbedTexts(texts, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d vectors, want %d", workers, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if got[i][d] != want[i][d] {
					t.Fatalf("workers=%d: vector %d differs at dim %d", workers, i, d)
				}
			}
		}
	}
	if out := e.EmbedTexts(nil, 4); len(out) != 0 {
		t.Fatalf("EmbedTexts(nil) = %v, want empty", out)
	}
}

// embedTextReference is EmbedText as it stood before EmbedTerms was split
// out of it: tokenize inside, accumulate in sorted token order.
func embedTextReference(e *Embedder, s string) Vector {
	tokens := textutil.TokenizeFiltered(s)
	out := make(Vector, e.Dim())
	if len(tokens) == 0 {
		return out
	}
	freq := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		freq[t]++
	}
	uniq := make([]string, 0, len(freq))
	for t := range freq {
		uniq = append(uniq, t)
	}
	sort.Strings(uniq)
	for _, t := range uniq {
		w := float32(math.Sqrt(freq[t]))
		tv := e.TokenVector(t)
		for i := range out {
			out[i] += w * tv[i]
		}
	}
	Normalize(out)
	return out
}

// TestEmbedTermsMatchesEmbedText: embedding pre-analyzed terms — alone or
// through the batch AnalyzeTexts — gives the bits EmbedText gives for the
// text, and the terms are the analysis chain's, untouched.
func TestEmbedTermsMatchesEmbedText(t *testing.T) {
	e := NewEmbedder(128, 3)
	texts := []string{
		"",
		"the of and", // stopwords only
		"In 1954 u.s. open (golf), the prize for Tommy Bolt was 570.",
		"prize prize prize money money golf",
		"café zürich 42nd running runs ran",
		"1954 u.s. open (golf) | place: t6 | player: tommy bolt | country: united states | money: 570",
		"a b c d e f g",
	}
	sameBits := func(a, b Vector) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, s := range texts {
		terms := textutil.TokenizeFiltered(s)
		before := append([]string(nil), terms...)
		want := embedTextReference(e, s)
		if got := e.EmbedTerms(terms); !sameBits(got, want) {
			t.Errorf("EmbedTerms(TokenizeFiltered(%q)) differs from the reference embedding", s)
		}
		if got := e.EmbedText(s); !sameBits(got, want) {
			t.Errorf("EmbedText(%q) differs from the reference embedding", s)
		}
		if !slices.Equal(terms, before) {
			t.Errorf("EmbedTerms modified its terms: %v -> %v", before, terms)
		}
	}
	for _, workers := range []int{0, 1, 4} {
		terms, vecs := e.AnalyzeTexts(texts, workers)
		for i, s := range texts {
			if !slices.Equal(terms[i], textutil.TokenizeFiltered(s)) {
				t.Errorf("workers=%d: AnalyzeTexts terms for %q = %v", workers, s, terms[i])
			}
			if !sameBits(vecs[i], embedTextReference(e, s)) {
				t.Errorf("workers=%d: AnalyzeTexts vector for %q differs from the reference embedding", workers, s)
			}
		}
	}
}
