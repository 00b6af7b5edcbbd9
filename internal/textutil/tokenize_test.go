package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hello world", []string{"hello", "world"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"Ohio's_1st_congressional_district", []string{"ohios", "1st", "congressional", "district"}},
		{"1954 u.s. open (golf)", []string{"1954", "u", "s", "open", "golf"}},
		{"o'brien", []string{"obrien"}},
		{"a-b-c", []string{"a", "b", "c"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"$6,000", []string{"6", "000"}},
		{"é—ü", []string{"é", "ü"}},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeLowercasesEverything(t *testing.T) {
	// ASCII letters must come out lowercase (some exotic Unicode uppercase
	// letters like 𝕏 have no lowercase mapping; those pass through, which
	// matches unicode.ToLower).
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// And any rune with a lowercase mapping is mapped.
	for _, tok := range Tokenize("ÀÉÎÕÜ") {
		for _, r := range tok {
			if unicode.ToLower(r) != r {
				t.Errorf("rune %q not lowercased", r)
			}
		}
	}
}

func TestTokenizeFiltered(t *testing.T) {
	got := TokenizeFiltered("The running dogs are in the houses")
	// "the", "are", "in" are stopwords; remaining tokens are stemmed.
	want := []string{"run", "dog", "hous"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokenizeFiltered = %v, want %v", got, want)
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", ""},
		{"  Hello   World  ", "hello world"},
		{"Steve_Chabot", "steve chabot"},
		{"A\tB\nC", "a b c"},
		{"already normal", "already normal"},
	}
	for _, tc := range tests {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFold(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Steve_Chabot", "steve chabot"},
		{"steve chabot.", "steve chabot"},
		{"  Mixed-Case, Text!  ", "mixed case text"},
		{"", ""},
		{"$6,000", "6 000"},
	}
	for _, tc := range tests {
		if got := Fold(tc.in); got != tc.want {
			t.Errorf("Fold(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFoldIdempotent(t *testing.T) {
	f := func(s string) bool { return Fold(Fold(s)) == Fold(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool { return Normalize(Normalize(s)) == Normalize(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSentences(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"One. Two! Three?", []string{"One.", "Two!", "Three?"}},
		{"No terminator", []string{"No terminator"}},
		{"", nil},
		{"Dr. Smith went home. (Quietly.)", []string{"Dr.", "Smith went home.", "(Quietly.)"}},
		{"Trailing space. ", []string{"Trailing space."}},
	}
	for _, tc := range tests {
		got := SplitSentences(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitSentences(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSplitSentencesCoversInput(t *testing.T) {
	// Every non-space character of a simple sentence list must survive.
	in := "The first sentence is here. The second follows it. And a third."
	var total int
	for _, s := range SplitSentences(in) {
		total += len(strings.ReplaceAll(s, " ", ""))
	}
	want := len(strings.ReplaceAll(in, " ", ""))
	if total != want {
		t.Errorf("sentences cover %d non-space chars, want %d", total, want)
	}
}
