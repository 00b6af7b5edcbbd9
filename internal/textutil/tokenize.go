// Package textutil provides the text-processing substrate shared by the
// indexing, reranking, and verification layers: tokenization, normalization,
// Porter stemming, stopword filtering, token-set similarity, and numeric
// parsing. All functions are deterministic and allocation-conscious,
// since they sit on the hot path of both index construction and query
// evaluation.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters/digits; punctuation and whitespace are separators. Apostrophes
// inside a word ("ohio's") are dropped so that "ohio's" and "ohio" share a
// prefix token. Underscores are treated as separators because data-lake
// identifiers such as "Ohio's_1st_congressional_district" should decompose
// into searchable words.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	tokens := make([]string, 0, len(s)/5+1)
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
			// Drop apostrophes without splitting: "o'brien" -> "obrien".
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// TokenizeFiltered tokenizes s, removes stopwords, and stems each remaining
// token. This is the canonical analysis chain used by the inverted index.
func TokenizeFiltered(s string) []string {
	raw := Tokenize(s)
	out := raw[:0]
	for _, t := range raw {
		if IsStopword(t) {
			continue
		}
		out = append(out, Stem(t))
	}
	return out
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
