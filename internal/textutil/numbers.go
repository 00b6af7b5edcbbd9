package textutil

import (
	"strconv"
	"strings"
	"unicode"
)

// ParseNumber extracts a numeric value from a data-lake cell string. It
// tolerates currency symbols, thousands separators, surrounding words, and
// percent signs: "$6,000" -> 6000, "960 in total" -> 960, "+ 4" -> 4,
// "71.5%" -> 71.5. The second return is false when s contains no number.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	// Most cells are words. Without a digit the only numbers are the
	// spellings ParseFloat knows, so answer those cells before ParseFloat
	// allocates an error for them.
	if !strings.ContainsFunc(s, unicode.IsDigit) {
		t := strings.TrimLeft(s, "+-")
		if !strings.EqualFold(t, "inf") && !strings.EqualFold(t, "infinity") && !strings.EqualFold(t, "nan") {
			return 0, false
		}
	}
	// Fast path: plain number.
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, true
	}
	// Scan for the first number-like run.
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		if !unicode.IsDigit(runes[i]) {
			continue
		}
		// Walk back over a sign immediately preceding (possibly spaced).
		start := i
		j := i - 1
		for j >= 0 && runes[j] == ' ' {
			j--
		}
		neg := j >= 0 && runes[j] == '-'
		// Walk forward over digits, separators, decimal point.
		end := i
		for end < len(runes) {
			r := runes[end]
			if unicode.IsDigit(r) {
				end++
				continue
			}
			if r == ',' && end+1 < len(runes) && unicode.IsDigit(runes[end+1]) {
				end++
				continue
			}
			if r == '.' && end+1 < len(runes) && unicode.IsDigit(runes[end+1]) {
				end++
				continue
			}
			break
		}
		numStr := strings.ReplaceAll(string(runes[start:end]), ",", "")
		v, err := strconv.ParseFloat(numStr, 64)
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
