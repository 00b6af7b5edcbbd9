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

// TestParseNumberMatchesReference holds the digit-free exit to the old
// results: every cell, column name and caption of the default lake, plus
// the digit-free spellings ParseFloat accepts and digits outside ASCII.
func TestParseNumberMatchesReference(t *testing.T) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells := []string{
		"", " ", "inf", "Inf", "+Infinity", "-INF", "nan", "NaN", "+nan", "-nan", "+-inf", "infinit", "infinityx",
		"İnf", "ınf", "٣", "٣٤ items", "price ٣", "१२", "-", "+", ".", "e", "0x", "0x1p-2", "1_000", "1e3", "north", "india", "Nancy",
	}
	for _, tb := range corpus.Tables {
		cells = append(cells, tb.Caption)
		cells = append(cells, tb.Columns...)
		for _, row := range tb.Rows {
			cells = append(cells, row...)
		}
	}
	for _, c := range cells {
		want, wantOK := parseNumberRef(c)
		got, ok := textutil.ParseNumber(c)
		if ok != wantOK || (got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
			t.Fatalf("ParseNumber(%q) = (%v, %v), reference (%v, %v)", c, got, ok, want, wantOK)
		}
	}
	t.Logf("%d cells agree", len(cells))
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
