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

// tokenBuf is the token length the scanning kernel lowercases into its
// caller's stack buffer; a longer token grows the buffer onto the heap.
const tokenBuf = 64

// ScanToken is the analysis chain's one byte-scanning kernel: it finds the
// first token of s at or after i, lowercases it into buf[:0] and returns
// it with the index just past it; tok is empty once s holds no more
// tokens. A caller that passes a buffer on its stack and keeps no token
// scans without allocating (a token longer than the buffer grows it). A token is a maximal run of letters and digits; punctuation and
// whitespace separate tokens. Apostrophes inside a word ("ohio's") are
// dropped so that "ohio's" and "ohio" share a prefix token. Underscores
// separate too, because data-lake identifiers such as
// "Ohio's_1st_congressional_district" should decompose into searchable
// words. ASCII is classified and lowercased a byte at a time; other input
// is decoded and goes through package unicode.
func ScanToken(s string, i int, buf []byte) (tok []byte, next int) {
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

// Tokenize splits s into lowercase word tokens (see ScanToken).
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	tokens := make([]string, 0, len(s)/5+1)
	var buf [tokenBuf]byte
	for i := 0; i < len(s); {
		var tok []byte
		if tok, i = ScanToken(s, i, buf[:0]); len(tok) > 0 {
			tokens = append(tokens, string(tok))
		}
	}
	return tokens
}

// Fold returns a fully folded comparison key: lowercased, with every run
// of characters other than letters and digits collapsed to one space and
// trimmed. "Steve_Chabot" and "steve chabot." fold equal. A
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
func FoldEqual(s, folded string) bool { return foldCompare(s, folded, false) }

// FoldContains reports whether Fold(s) contains folded — a Fold key, or a
// piece of one cut at rune boundaries — folding s as it searches instead
// of building its key: it allocates nothing. A match starts at a rune of
// Fold(s), or at a space before one; each rune that can start one is
// checked by foldCompare, which stops at the first byte that differs.
func FoldContains(s, folded string) bool {
	if folded == "" {
		return true
	}
	first := folded[0]
	space, started := false, false
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		lower := asciiFold[s[i]&0x7f] // the lowered byte, or 0 for a separator
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
			lower = 0
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				lower = first // any rune may lower to the first byte's
			}
		}
		if lower == 0 {
			space = started
			i += n
			continue
		}
		if lower == first && foldCompare(s[i:], folded, true) ||
			space && first == ' ' && foldCompare(s[i:], folded[1:], true) {
			return true
		}
		space, started = false, true
		i += n
	}
	return false
}

// foldCompare folds s as Fold does and compares the key with folded as it
// goes, stopping at the first byte that differs: with prefix it reports
// whether the key starts with folded, else whether it is folded.
func foldCompare(s, folded string, prefix bool) bool {
	pos := 0
	space, started := false, false
	for i := 0; i < len(s); {
		if prefix && pos == len(folded) {
			return true
		}
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			lower := asciiFold[c]
			if lower == 0 {
				space = started
				continue
			}
			if space {
				if pos == len(folded) || folded[pos] != ' ' {
					return false
				}
				if pos++; prefix && pos == len(folded) {
					return true
				}
				space = false
			}
			started = true
			if pos == len(folded) || folded[pos] != lower {
				return false
			}
			pos++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		i += n
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			space = started
			continue
		}
		if space {
			if pos == len(folded) || folded[pos] != ' ' {
				return false
			}
			if pos++; prefix && pos == len(folded) {
				return true
			}
			space = false
		}
		started = true
		var enc [utf8.UTFMax]byte
		k := utf8.EncodeRune(enc[:], unicode.ToLower(r))
		if len(folded)-pos < k || folded[pos:pos+k] != string(enc[:k]) {
			return false
		}
		pos += k
	}
	return pos == len(folded)
}

// asciiFold maps an ASCII letter or digit to its lowercase and every other
// ASCII byte to 0: the ASCII part of Fold, without package unicode.
var asciiFold = func() (t [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c
	}
	for c := byte('a'); c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = c, c
	}
	return t
}()

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
