package textutil

import (
	"testing"
)

func TestParseNumber(t *testing.T) {
	tests := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"", 0, false},
		{"abc", 0, false},
		{"42", 42, true},
		{"-3.5", -3.5, true},
		{"$6,000", 6000, true},
		{"960 in total", 960, true},
		{"+ 4", 4, true},
		{"- 4", -4, true},
		{"71.5%", 71.5, true},
		{"1,234,567", 1234567, true},
		{"71 + 70 + 71 + 72 = 284", 71, true}, // first number wins
		{"t6", 6, true},
		{"3.14 and 2.71", 3.14, true},
	}
	for _, tc := range tests {
		got, ok := ParseNumber(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseNumber(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestIsNumeric(t *testing.T) {
	for _, s := range []string{"42", "-3.5", "$100", "99%", "1,000", " 7 "} {
		if !IsNumeric(s) {
			t.Errorf("IsNumeric(%q) = false, want true", s)
		}
	}
	for _, s := range []string{"", "abc", "t6", "12 dollars", "71 + 70"} {
		if IsNumeric(s) {
			t.Errorf("IsNumeric(%q) = true, want false", s)
		}
	}
}

func TestNearlyEqual(t *testing.T) {
	tests := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{960, 960.0, true},
		{1, 1 + 1e-12, true},
		{1, 1.1, false},
		{1e12, 1e12 + 1, true}, // relative tolerance
		{-5, -5, true},
		{-5, 5, false},
	}
	for _, tc := range tests {
		if got := NearlyEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("NearlyEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
