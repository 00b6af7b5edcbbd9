package textutil

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseNumber extracts a numeric value from a data-lake cell string. It
// tolerates currency symbols, thousands separators, surrounding words, and
// percent signs: "$6,000" -> 6000, "960 in total" -> 960, "+ 4" -> 4,
// "71.5%" -> 71.5. The second return is false when s contains no number.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	// Most cells are words. Without a digit the only numbers are the
	// spellings ParseFloat knows, so answer those cells before ParseFloat
	// allocates an error for them; the scan below needs a digit.
	if !strings.ContainsFunc(s, unicode.IsDigit) {
		t := strings.TrimLeft(s, "+-")
		if !strings.EqualFold(t, "inf") && !strings.EqualFold(t, "infinity") && !strings.EqualFold(t, "nan") {
			return 0, false
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v, true
		}
		return 0, false
	}
	// Fast path: plain number. Only a string ParseFloat could accept is
	// handed to it, so a cell like "$6,000" costs no error allocation.
	if maybePlainNumber(s) {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v, true
		}
	}
	// Scan for the first number-like run: a digit, then digits, each ',' or
	// '.' followed by a digit. Runes are decoded in place; the separators
	// and the sign are ASCII, which never occurs inside a multi-byte rune.
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsDigit(r) {
			i += size
			continue
		}
		// Walk back over a sign immediately preceding (possibly spaced).
		j := i - 1
		for j >= 0 && s[j] == ' ' {
			j--
		}
		neg := j >= 0 && s[j] == '-'
		// Walk forward over digits, separators, decimal point.
		end, commas, dots, ascii := i, 0, 0, true
		for end < len(s) {
			r, size := utf8.DecodeRuneInString(s[end:])
			if unicode.IsDigit(r) {
				ascii = ascii && size == 1
				end += size
				continue
			}
			if r == ',' || r == '.' {
				if next, _ := utf8.DecodeRuneInString(s[end+1:]); unicode.IsDigit(next) {
					if r == ',' {
						commas++
					} else {
						dots++
					}
					end++
					continue
				}
			}
			break
		}
		// ParseFloat fails on digits outside ASCII and on a second '.', so
		// such a run is skipped without asking it, as a failed parse would be.
		if ascii && dots <= 1 {
			if v, err := strconv.ParseFloat(dropCommas(s[i:end], commas), 64); err == nil {
				if neg {
					v = -v
				}
				return v, true
			}
		}
		i += size
	}
	return 0, false
}

// maybePlainNumber reports whether s could be a number to
// strconv.ParseFloat: a sign first or right after an exponent mark, at most
// one '.', and otherwise only digits, '_', hex digits, the hex prefix and
// exponent marks. It is true of everything ParseFloat accepts that has a
// digit.
func maybePlainNumber(s string) bool {
	dots := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F',
			c == '_', c == 'x', c == 'X', c == 'p', c == 'P':
		case c == '.':
			if dots++; dots > 1 {
				return false
			}
		case c == '+' || c == '-':
			if i > 0 && !strings.ContainsRune("eEpP", rune(s[i-1])) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// dropCommas returns run without its commas, of which it has n. The copy
// is made on the stack for the runs cells hold.
func dropCommas(run string, n int) string {
	if n == 0 {
		return run
	}
	var buf [64]byte
	b := buf[:0]
	for i := 0; i < len(run); i++ {
		if run[i] != ',' {
			b = append(b, run[i])
		}
	}
	return string(b)
}

// ParseAllNumbers returns every number appearing in s, in order.
func ParseAllNumbers(s string) []float64 {
	var out []float64
	runes := []rune(s)
	for i := 0; i < len(runes); {
		if !unicode.IsDigit(runes[i]) {
			i++
			continue
		}
		end := i
		for end < len(runes) {
			r := runes[end]
			if unicode.IsDigit(r) {
				end++
				continue
			}
			if (r == ',' || r == '.') && end+1 < len(runes) && unicode.IsDigit(runes[end+1]) {
				end++
				continue
			}
			break
		}
		numStr := strings.ReplaceAll(string(runes[i:end]), ",", "")
		if v, err := strconv.ParseFloat(numStr, 64); err == nil {
			out = append(out, v)
		}
		i = end
	}
	return out
}

// IsNumeric reports whether the whole (trimmed) string parses as a number,
// ignoring currency symbols and separators.
func IsNumeric(s string) bool {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimSuffix(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// NearlyEqual reports whether two floats agree within a relative tolerance
// of 1e-9 (or absolute 1e-9 near zero). Cell-level numeric comparison in the
// verifiers goes through this so that 960.0 and 960 compare equal.
func NearlyEqual(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff < 1e-9 {
		return true
	}
	aa, ab := a, b
	if aa < 0 {
		aa = -aa
	}
	if ab < 0 {
		ab = -ab
	}
	m := aa
	if ab > m {
		m = ab
	}
	return diff <= 1e-9*m
}
