// Package textutil provides the text-processing substrate shared by the
// indexing, reranking, and verification layers: tokenization, normalization,
// Porter stemming, stopword filtering, token-set similarity, and numeric
// parsing. All functions are deterministic and allocation-conscious,
// since they sit on the hot path of both index construction and query
// evaluation.
package textutil

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenBuf is the token length the scanning kernel lowercases into its
// caller's stack buffer; a longer token grows the buffer onto the heap.
const tokenBuf = 64

// scanToken is the analysis chain's one byte-scanning kernel: it finds the
// first token of s at or after i, lowercases it into buf[:0] and returns
// it with the index just past it; tok is empty once s holds no more
// tokens. A token is a maximal run of letters and digits; punctuation and
// whitespace separate tokens. Apostrophes inside a word ("ohio's") are
// dropped so that "ohio's" and "ohio" share a prefix token. Underscores
// separate too, because data-lake identifiers such as
// "Ohio's_1st_congressional_district" should decompose into searchable
// words. ASCII is classified and lowercased a byte at a time; other input
// is decoded and goes through package unicode.
func scanToken(s string, i int, buf []byte) (tok []byte, next int) {
	tok = buf[:0]
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				tok = append(tok, c)
			case 'A' <= c && c <= 'Z':
				tok = append(tok, c+('a'-'A'))
			case c == '\'':
				// Dropped without splitting: "o'brien" -> "obrien".
			case len(tok) > 0:
				return tok, i
			}
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		i += n
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
		case r == '’':
		case len(tok) > 0:
			return tok, i
		}
	}
	return tok, i
}

// Tokenize splits s into lowercase word tokens (see scanToken).
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	tokens := make([]string, 0, len(s)/5+1)
	var buf [tokenBuf]byte
	for i := 0; i < len(s); {
		var tok []byte
		if tok, i = scanToken(s, i, buf[:0]); len(tok) > 0 {
			tokens = append(tokens, string(tok))
		}
	}
	return tokens
}

// TokenizeFiltered tokenizes s, removes stopwords, and stems each remaining
// token: the analysis chain, as an empty dictionary's AppendTerms runs it.
func TokenizeFiltered(s string) []string { return new(Dict).AppendTerms(nil, s) }

// Bag is one analyzed text as term strings: its distinct terms in
// ascending byte order (the order an IDBag holds its terms in), each
// term's count, and the number of tokens.
type Bag struct {
	Terms  []string
	Counts []int32
	Len    int
}

// BagOf returns the bag of terms already analyzed; terms is not modified.
func BagOf(terms []string) Bag {
	sorted := slices.Clone(terms)
	slices.Sort(sorted)
	b := Bag{Terms: sorted[:0], Counts: make([]int32, 0, len(sorted)), Len: len(sorted)}
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

// Normalize lowercases s, collapses runs of whitespace to single spaces, and
// strips leading/trailing space. It is the cheap canonical form used for
// cell-value equality tests.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	started := false
	for _, r := range s {
		if unicode.IsSpace(r) || r == '_' {
			space = started
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
		started = true
	}
	return b.String()
}

// Fold returns a fully folded comparison key: normalized, with all
// punctuation removed. "Steve_Chabot" and "steve chabot." fold equal. A
// string that is its own key is returned as is, without allocating.
func Fold(s string) string {
	if FoldEqual(s, s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
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

// FoldEqual reports whether Fold(s) == folded, folding s as it compares
// instead of building its key: it allocates nothing and stops at the first
// byte that differs.
func FoldEqual(s, folded string) bool {
	pos := 0
	space := false
	started := false
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			space = started
			continue
		}
		if space {
			if pos == len(folded) || folded[pos] != ' ' {
				return false
			}
			pos++
			space = false
		}
		started = true
		var enc [utf8.UTFMax]byte
		n := utf8.EncodeRune(enc[:], unicode.ToLower(r))
		if len(folded)-pos < n || folded[pos:pos+n] != string(enc[:n]) {
			return false
		}
		pos += n
	}
	return pos == len(folded)
}

// SplitSentences splits text into sentences on ./!/? boundaries followed by
// whitespace. It is intentionally simple: the synthetic corpus generator
// produces well-punctuated text, and its callers only need rough boundaries.
func SplitSentences(text string) []string {
	var out []string
	start := 0
	runes := []rune(text)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r == '.' || r == '!' || r == '?' {
			// Consume trailing closing quotes/brackets.
			end := i + 1
			for end < len(runes) && (runes[end] == '"' || runes[end] == ')' || runes[end] == '\'') {
				end++
			}
			if end >= len(runes) || unicode.IsSpace(runes[end]) {
				s := strings.TrimSpace(string(runes[start:end]))
				if s != "" {
					out = append(out, s)
				}
				start = end
				i = end - 1
			}
		}
	}
	if tail := strings.TrimSpace(string(runes[start:])); tail != "" {
		out = append(out, tail)
	}
	return out
}
