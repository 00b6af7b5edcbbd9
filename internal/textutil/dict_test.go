package textutil_test

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/textutil"
	"repro/internal/workload"
)

// referenceTokenize is Tokenize as it stood before the byte-scanning
// kernel: the input's runes, one strings.Builder string per token.
func referenceTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' || r == '’':
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// termBag is one analyzed text as term strings: its distinct terms in
// ascending byte order (the order an IDBag holds its terms in), each
// term's count, and the number of tokens.
type termBag struct {
	Terms  []string
	Counts []int32
	Len    int
}

// bagOf returns the bag of terms already analyzed; terms is not modified.
func bagOf(terms []string) termBag {
	sorted := slices.Clone(terms)
	slices.Sort(sorted)
	b := termBag{Terms: sorted[:0], Counts: make([]int32, 0, len(sorted)), Len: len(sorted)}
	for _, t := range sorted {
		if n := len(b.Terms); n > 0 && b.Terms[n-1] == t {
			b.Counts[n-1]++
			continue
		}
		b.Terms = append(b.Terms, t)
		b.Counts = append(b.Counts, 1)
	}
	return b
}

// referenceChain is the analysis chain as it stood before the kernel and
// the dictionary: referenceTokenize, then IsStopword, then Porter's
// algorithm with no memo.
func referenceChain(s string) []string {
	var out []string
	for _, t := range referenceTokenize(s) {
		if !textutil.IsStopword(t) {
			out = append(out, textutil.Porter(t))
		}
	}
	return out
}

// edgeInputs are the shapes the default lake is short of.
var edgeInputs = []string{
	"",
	"UPPER Case MiXeD 1954 U.S. OPEN",
	"café naïve ZÜRICH Ærøskøbing İstanbul ΣΊΣΥΦΟΣ straße",
	"٣٤٥ ๑๒๓ ²³ Ⅻ full-width ＡＢＣ１２３",
	"o'brien O’Neill rock'n'roll ' ’ '' ends'",
	"Ohio's_1st_congressional_district __init__ a_b",
	strings.Repeat("x", 63) + " " + strings.Repeat("Y", 64) + " " + strings.Repeat("z", 65) + " " + strings.Repeat("é", 40),
	strings.Repeat("running", 20) + "s " + strings.Repeat("ab", 100) + "ing",
	"\xff\xfe not utf-8 \x00 tab\there\nnewline",
	"the of and is was were", // stopwords only
	"$6,000 (t6) 1,400 -3.5e7 #1 50%",
}

// lakeInputs returns every caption, column, cell and document title and
// text of the default workload lake, and every entity page.
func lakeInputs(t *testing.T) []string {
	t.Helper()
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	lake := corpus.Lake
	var out []string
	for _, id := range lake.TableIDs() {
		tb, _ := lake.Table(id)
		out = append(out, tb.Caption)
		out = append(out, tb.Columns...)
		for _, row := range tb.Rows {
			out = append(out, row...)
		}
	}
	for _, id := range lake.DocIDs() {
		d, _ := lake.Document(id)
		out = append(out, d.Title, d.Text)
	}
	g := lake.Graph()
	for _, e := range g.Entities() {
		page, _ := g.EntityPage(e)
		out = append(out, page)
	}
	return out
}

// novelInputs are lines of tokens the default lake never holds raw whose
// stems it holds as terms ("golfing" when "golf" is known), and of tokens
// it holds neither way.
var novelInputs = []string{
	"Golfing golfers' countries, players: elections, rankings scored incumbents' albums",
	"Springfieldian zyzzyva qwertyuiopasdfgh 1954000000",
}

// TestKernelMatchesReferenceChain: for every piece of text of the default
// lake and the edge inputs, Tokenize is the reference tokenizer,
// a new dictionary's AppendTerms the reference chain, and a dictionary's
// IDs and bag, cold and then warm, name the reference chain's terms — and
// bagOf's string bag is the dictionary bag's, term for term. The read-only
// path yields the reference chain too, over an empty dictionary and over
// the warm one, novel tokens included, and adds nothing to either.
func TestKernelMatchesReferenceChain(t *testing.T) {
	inputs := append(lakeInputs(t), edgeInputs...)
	d, empty := textutil.NewDict(), textutil.NewDict()
	for pass := 0; pass < 2; pass++ {
		for _, s := range inputs {
			want := referenceChain(s)
			if got := textutil.Tokenize(s); !slices.Equal(got, referenceTokenize(s)) {
				t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, referenceTokenize(s))
			}
			if got := new(textutil.Dict).AppendTerms(nil, s); !slices.Equal(got, want) {
				t.Fatalf("AppendTerms(%q) over a new dictionary = %q, reference %q", s, got, want)
			}
			if got := empty.AppendTerms(nil, s); !slices.Equal(got, want) {
				t.Fatalf("AppendTerms(%q) over an empty dictionary = %q, reference %q", s, got, want)
			}
			ids := d.AppendIDs(nil, s)
			got := make([]string, len(ids))
			for i, id := range ids {
				got[i] = d.Term(id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pass %d: dictionary terms of %q = %q, reference %q", pass, s, got, want)
			}
			bag, ref := d.Bag(ids), bagOf(want)
			if bag.Len != ref.Len || len(bag.Terms) != len(ref.Terms) {
				t.Fatalf("bag of %q: %d tokens, %d terms; reference %d, %d", s, bag.Len, len(bag.Terms), ref.Len, len(ref.Terms))
			}
			for i, tf := range bag.Terms {
				if d.Term(tf.ID) != ref.Terms[i] || tf.Freq != ref.Counts[i] {
					t.Fatalf("bag of %q: term %d is %q×%d, reference %q×%d", s, i, d.Term(tf.ID), tf.Freq, ref.Terms[i], ref.Counts[i])
				}
			}
		}
	}
	for id := 0; id < d.Len(); id++ {
		if got, ok := d.Lookup(d.Term(uint32(id))); !ok || got != uint32(id) {
			t.Fatalf("Lookup(Term(%d)) = %d, %v", id, got, ok)
		}
	}
	for _, tok := range []string{"golfing", "golfers", "countries", "players", "elections", "rankings", "scored", "incumbents", "albums"} {
		if _, known := d.Lookup(textutil.Porter(tok)); d.HasRaw(tok) || !known {
			t.Fatalf("%q is not a novel token whose stem is a term of the lake", tok)
		}
	}
	terms, raw := d.Len(), d.RawLen()
	for _, s := range append(inputs, novelInputs...) {
		if got, want := d.AppendTerms(nil, s), referenceChain(s); !slices.Equal(got, want) {
			t.Fatalf("AppendTerms(%q) over the warm dictionary = %q, reference %q", s, got, want)
		}
		if got, want := empty.AppendTerms(nil, s), referenceChain(s); !slices.Equal(got, want) {
			t.Fatalf("AppendTerms(%q) over an empty dictionary = %q, reference %q", s, got, want)
		}
	}
	if d.Len() != terms || d.RawLen() != raw {
		t.Errorf("AppendTerms grew the warm dictionary from %d terms, %d raw tokens to %d, %d", terms, raw, d.Len(), d.RawLen())
	}
	if empty.Len() != 0 || empty.RawLen() != 0 {
		t.Errorf("AppendTerms added %d terms, %d raw tokens to an empty dictionary", empty.Len(), empty.RawLen())
	}
}

// TestDictConcurrent: writers racing to add overlapping text agree on
// every ID (run under -race), and a term's ID is the same whichever raw
// token or Add reached it first.
func TestDictConcurrent(t *testing.T) {
	inputs := append(lakeInputs(t)[:20000], edgeInputs...)
	d := textutil.NewDict()
	var wg sync.WaitGroup
	got := make([][][]uint32, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([][]uint32, len(inputs))
			for i := range inputs {
				j := (i + w*len(inputs)/len(got)) % len(inputs)
				got[w][j] = d.AppendIDs(nil, inputs[j])
				if w == 0 && i%7 == 0 {
					for _, term := range referenceChain(inputs[j]) {
						d.Add(term)
					}
				}
			}
		}()
	}
	wg.Wait()
	for j := range inputs {
		for w := 1; w < len(got); w++ {
			if !slices.Equal(got[w][j], got[0][j]) {
				t.Fatalf("%q: writer %d got IDs %v, writer 0 %v", inputs[j], w, got[w][j], got[0][j])
			}
		}
	}
	seen := make(map[string]bool, d.Len())
	for id := 0; id < d.Len(); id++ {
		if term := d.Term(uint32(id)); seen[term] {
			t.Fatalf("term %q numbered twice", term)
		} else {
			seen[term] = true
		}
	}
}

// TestAnalyzeKnownTermsAllocs: analyzing an instance whose terms are all
// in the dictionary allocates nothing but its bag, reading its terms
// nothing at all, and neither a lookup nor a read-only analysis adds.
func TestAnalyzeKnownTermsAllocs(t *testing.T) {
	const text = "1954 U.S. Open (golf) place t6 player Tommy Bolt country United States money 570 o'brien café"
	d := textutil.NewDict()
	ids := d.AppendIDs(nil, text)
	n := d.Len()
	if allocs := testing.AllocsPerRun(100, func() { ids = d.AppendIDs(ids[:0], text) }); allocs != 0 {
		t.Errorf("AppendIDs of known terms: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Bag(d.AppendIDs(ids[:0], text)) }); allocs > 1 {
		t.Errorf("AppendIDs and Bag of known terms: %v allocations, want at most 1 (the bag)", allocs)
	}
	terms := d.AppendTerms(nil, text)
	if allocs := testing.AllocsPerRun(100, func() { terms = d.AppendTerms(terms[:0], text) }); allocs != 0 {
		t.Errorf("AppendTerms of known terms: %v allocations, want 0", allocs)
	}
	for _, term := range []string{"novel", "unheard", "1954"} {
		d.Lookup(term)
	}
	d.AppendTerms(nil, "novel unheard golfing 1954")
	if d.Len() != n {
		t.Errorf("lookups grew the dictionary from %d to %d terms", n, d.Len())
	}
}
