package embed

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
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
		"Dot": func() { Dot(Vector{1}, Vector{1, 2}) },
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

// TestAddTermVectors: the rows AddTermVectors fills concurrently are, bit
// for bit, the rows a fresh embedder fills taking the terms one at a time,
// across several chunks of the table, with duplicate terms, terms the
// dictionary already holds (one with its row filled), and nil input.
func TestAddTermVectors(t *testing.T) {
	const dim, seed = 24, 11
	e := NewEmbedder(dim, seed)
	e.Row(e.Dict().Add("t3"))
	e.Dict().Add("t5")
	var terms []string
	for i := range 3*tokenChunk + 17 {
		terms = append(terms, "t"+strconv.Itoa(i))
		if i%7 == 0 {
			terms = append(terms, "t"+strconv.Itoa(i/2))
		}
	}
	got := e.AddTermVectors(terms)
	if len(got) != len(terms) {
		t.Fatalf("got %d vectors for %d terms", len(got), len(terms))
	}
	if n := e.Dict().Len(); n != 3*tokenChunk+17 {
		t.Errorf("dictionary holds %d terms, want %d", n, 3*tokenChunk+17)
	}
	ref := NewEmbedder(dim, seed)
	for i, term := range terms {
		want := ref.Row(ref.Dict().Add(term))
		id, ok := e.Dict().Lookup(term)
		if !ok {
			t.Fatalf("term %q not in the dictionary", term)
		}
		row := e.Row(id)
		for d := range want {
			if math.Float32bits(got[i][d]) != math.Float32bits(want[d]) || math.Float32bits(row[d]) != math.Float32bits(want[d]) {
				t.Fatalf("term %d (%q) differs at dim %d: got %v, row %v, want %v", i, term, d, got[i][d], row[d], want[d])
			}
		}
	}
	if out := e.AddTermVectors(nil); len(out) != 0 {
		t.Fatalf("AddTermVectors(nil) = %v, want empty", out)
	}
}

// embedTextReference is EmbedText as it stood before the dictionary
// analyzed queries: tokenize inside, accumulate in sorted token order.
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

// TestEmbedTextMatchesReference: EmbedText gives the reference
// embedding's bits over an empty dictionary and over one that holds the
// texts' terms, and so does adding the text's bag into an accumulator an
// earlier text dirtied and normalizing it.
func TestEmbedTextMatchesReference(t *testing.T) {
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
		if got := e.EmbedText(s); !sameBits(got, embedTextReference(e, s)) {
			t.Errorf("EmbedText(%q) over an empty dictionary differs from the reference embedding", s)
		}
	}
	if n := e.Dict().Len(); n != 0 {
		t.Errorf("EmbedText added %d terms to the dictionary", n)
	}
	acc := make(Vector, e.Dim())
	for _, s := range texts {
		clear(acc)
		e.AddBag(acc, e.Dict().Analyze(s))
		Normalize(acc)
		if !sameBits(acc, embedTextReference(e, s)) {
			t.Errorf("AddBag of the dictionary's bag of %q into a reused accumulator differs from the reference embedding", s)
		}
		if got := e.EmbedText(s); !sameBits(got, embedTextReference(e, s)) {
			t.Errorf("EmbedText(%q) over a dictionary that holds its terms differs from the reference embedding", s)
		}
	}
}

// TestTokenTable: the token table hands out the vector TokenVector always
// computed — each (seed, token) stream, normalized — and a vector handed
// out before the table grew by chunks is unchanged after, from any number
// of goroutines. Only the dictionary's terms take rows: a token it lacks
// gets the same vector and leaves the table as it was.
func TestTokenTable(t *testing.T) {
	e := NewEmbedder(16, 5)
	tokens := make([]string, 3*tokenChunk+7)
	for i := range tokens {
		tokens[i] = "tok" + strconv.Itoa(i)
	}
	first := e.Row(e.Dict().Add(tokens[0]))
	want := slices.Clone(first)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(tokens); i += 2 {
				e.Row(e.Dict().Add(tokens[i]))
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if !slices.Equal(first, want) {
		t.Fatal("a token vector changed as the table grew")
	}
	for i, tok := range tokens {
		r := detrand.New(5, "token", tok)
		ref := make(Vector, 16)
		for d := range ref {
			ref[d] = float32(r.NormFloat64())
		}
		Normalize(ref)
		if got := e.TokenVector(tok); !slices.Equal(got, ref) {
			t.Fatalf("token %d: table row %v, want %v", i, got, ref)
		}
	}
	if got, want := e.TableBytes(), int64(4*tokenChunk*16*4); got != want {
		t.Errorf("TableBytes = %d, want %d (four chunks)", got, want)
	}
	r := detrand.New(5, "token", "novel")
	ref := make(Vector, 16)
	for d := range ref {
		ref[d] = float32(r.NormFloat64())
	}
	Normalize(ref)
	if got := e.TokenVector("novel"); !slices.Equal(got, ref) {
		t.Errorf("novel token: vector %v, want %v", got, ref)
	}
	if n := e.Dict().Len(); n != len(tokens) {
		t.Errorf("dictionary holds %d terms after a lookup of a novel token, want %d", n, len(tokens))
	}
	if got, want := e.TableBytes(), int64(4*tokenChunk*16*4); got != want {
		t.Errorf("TableBytes = %d after a lookup of a novel token, want %d", got, want)
	}
}
