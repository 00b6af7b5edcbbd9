package textutil_test

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/textutil"
	"repro/internal/workload"
)

// parseNumberRef is ParseNumber as it stood before the digit-free exit:
// ParseFloat first, whatever the cell holds.
func parseNumberRef(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, true
	}
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		if !unicode.IsDigit(runes[i]) {
			continue
		}
		j := i - 1
		for j >= 0 && runes[j] == ' ' {
			j--
		}
		neg := j >= 0 && runes[j] == '-'
		end := i
		for end < len(runes) {
			r := runes[end]
			if unicode.IsDigit(r) || ((r == ',' || r == '.') && end+1 < len(runes) && unicode.IsDigit(runes[end+1])) {
				end++
				continue
			}
			break
		}
		v, err := strconv.ParseFloat(strings.ReplaceAll(string(runes[i:end]), ",", ""), 64)
		if err != nil {
			continue
		}
		if neg {
			v = -v
		}
		return v, true
	}
	return 0, false
}

// foldRef is Fold as it stood before FoldEqual: the reference both are
// tested against.
func foldRef(s string) string {
	var b strings.Builder
	space := false
	started := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if space {
				b.WriteByte(' ')
				space = false
			}
			b.WriteRune(unicode.ToLower(r))
			started = true
		default:
			space = started
		}
	}
	return b.String()
}

// edgeCells are inputs the lake does not hold: the digit-free spellings
// ParseFloat accepts, digits and letters outside ASCII, separators and
// signs in every position, exponents, hex, runs ParseFloat refuses or
// overflows on, and invalid UTF-8.
var edgeCells = []string{
	"", " ", "inf", "Inf", "+Infinity", "-INF", "nan", "NaN", "+nan", "-nan", "+-inf", "infinit", "infinityx",
	"İnf", "ınf", "٣", "٣٤ items", "price ٣", "१२", "-", "+", ".", "e", "0x", "0x1p-2", "1_000", "1e3", "north", "india", "Nancy",
	"$6,000", "+ 4", "- 4", "-  12.5 pts", "2011-05-03", "1.2.3", "1,234,567.89", "1,2,3", ",5", "5,", "5.", ".5", "-.5",
	"71.5%", "960 in total", "12a", "a12", "1e400", "1e-400", "-1e5x", "0X1P-2", "0x1e-2", "1__0", "_1", "1_",
	"1" + strings.Repeat("0", 400), "x " + strings.Repeat("9", 320) + " y", strings.Repeat("1,", 40) + "1",
	"٣.٤", "1,٣", "٣,1", "1.٣", "Ⅻ", "²", "3²", "\xe2\x82 5", "5\xff", "\xff-5", "- \xff 5", "\xc3",
	"Steve_Chabot", "steve chabot.", "  Arnold  PALMER ", "o'brien", "São Paulo", "ǅemal", "ΣΊΣΥΦΟΣ", "ﬁnal", "Straße",
	"K", "İstanbul", "a\u0301", "tab\tsep", "--", "a--b", "...", "",
}

// lakeCells returns every caption, column name and cell of the default
// lake, then edgeCells.
func lakeCells(t *testing.T) []string {
	t.Helper()
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	for _, tb := range corpus.Tables {
		cells = append(cells, tb.Caption)
		cells = append(cells, tb.Columns...)
		for _, row := range tb.Rows {
			cells = append(cells, row...)
		}
	}
	return append(cells, edgeCells...)
}

// TestFoldEqualMatchesReference holds Fold and FoldEqual to foldRef on
// every lake string and edge input: each string against its own key, the
// previous string's key, and its own key cut short or run long.
func TestFoldEqualMatchesReference(t *testing.T) {
	cells := lakeCells(t)
	prev := ""
	for _, c := range cells {
		key := foldRef(c)
		if got := textutil.Fold(c); got != key {
			t.Fatalf("Fold(%q) = %q, reference %q", c, got, key)
		}
		for _, folded := range []string{key, foldRef(prev), key + " ", key + "x", strings.TrimSuffix(key, key[max(len(key)-1, 0):])} {
			if got, want := textutil.FoldEqual(c, folded), key == folded; got != want {
				t.Fatalf("FoldEqual(%q, %q) = %v, reference %v", c, folded, got, want)
			}
		}
		prev = c
	}
	t.Logf("%d strings agree", len(cells))
}

// TestParseNumberMatchesReference holds ParseNumber's exits and its
// in-place scan to the old results on every lake string and edge input.
func TestParseNumberMatchesReference(t *testing.T) {
	cells := lakeCells(t)
	for _, c := range cells {
		want, wantOK := parseNumberRef(c)
		got, ok := textutil.ParseNumber(c)
		if ok != wantOK || (got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
			t.Fatalf("ParseNumber(%q) = (%v, %v), reference (%v, %v)", c, got, ok, want, wantOK)
		}
	}
	t.Logf("%d cells agree", len(cells))
}

// TestParseNumberCellsAllocateNothing: numbers as cells write them —
// plain, with separators, signs, units or words around — are parsed
// without an allocation too.
func TestParseNumberCellsAllocateNothing(t *testing.T) {
	for _, cell := range []string{"1400", "-3.25", "$6,000", "+ 4", "71.5%", "960 in total", "2011-05-03", "1,234,567.89", "1.2.3", "١٢ and 7"} {
		if n := testing.AllocsPerRun(100, func() { textutil.ParseNumber(cell) }); n != 0 {
			t.Errorf("ParseNumber(%q) allocates %v times", cell, n)
		}
	}
}

// TestParseNumberNonNumericAllocatesNothing: a cell of words is answered
// before ParseFloat can allocate an error for it.
func TestParseNumberNonNumericAllocatesNothing(t *testing.T) {
	for _, cell := range []string{"Arnold Palmer", "united states", "  n/a ", "north", "İstanbul"} {
		if n := testing.AllocsPerRun(100, func() { textutil.ParseNumber(cell) }); n != 0 {
			t.Errorf("ParseNumber(%q) allocates %v times", cell, n)
		}
	}
}

// TestFoldContainsMatchesReference holds FoldContains to strings.Contains
// over foldRef keys: every document of the default lake against the
// captions of tables and pieces of its own key, and every lake string and
// edge input against its own key, pieces of it cut at rune boundaries,
// and the previous string's key.
func TestFoldContainsMatchesReference(t *testing.T) {
	check := func(s, folded string) {
		t.Helper()
		if got, want := textutil.FoldContains(s, folded), strings.Contains(foldRef(s), folded); got != want {
			t.Fatalf("FoldContains(%q, %q) = %v, reference %v", s, folded, got, want)
		}
	}
	// pieces cuts key at rune boundaries: a prefix, a suffix, a middle
	// and one rune.
	pieces := func(key string) []string {
		var cuts []int
		for i := range key {
			cuts = append(cuts, i)
		}
		cuts = append(cuts, len(key))
		n := len(cuts) - 1
		return []string{key[:cuts[n/2]], key[cuts[n/3]:], key[cuts[n/4]:cuts[n-n/4]], key[cuts[n/2]:cuts[min(n/2+1, n)]]}
	}
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	docs := 0
	for i, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		for k := range 5 {
			check(d.Text, foldRef(corpus.Tables[(7*i+k)%len(corpus.Tables)].Caption))
		}
		for _, p := range pieces(foldRef(d.Text)) {
			check(d.Text, p)
		}
		docs++
	}
	cells := lakeCells(t)
	prev := ""
	for _, c := range cells {
		key := foldRef(c)
		for _, folded := range append(pieces(key), key, foldRef(prev), key+" x", "x"+key) {
			check(c, folded)
		}
		prev = c
	}
	t.Logf("%d documents and %d strings agree", docs, len(cells))
}

// TestTermKeepsFirstByte: the term of every token of the default lake's
// strings and documents, and of words whose suffix is all Porter's rules
// leave, starts with the token's first byte — what lets a reranker skip a
// candidate token whose first byte starts no query term.
func TestTermKeepsFirstByte(t *testing.T) {
	texts := append(lakeCells(t), "ies sses eed ing ed ying ied ational ization ement ness ful ll able")
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	for _, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		texts = append(texts, d.Text)
	}
	dict, tokens := textutil.NewDict(), 0
	for _, s := range texts {
		for _, tok := range textutil.Tokenize(s) {
			_, term, _ := dict.TokenTerm([]byte(tok))
			if term != "" && term[0] != tok[0] {
				t.Fatalf("token %q has term %q", tok, term)
			}
			tokens++
		}
	}
	t.Logf("%d tokens keep their first byte", tokens)
}
