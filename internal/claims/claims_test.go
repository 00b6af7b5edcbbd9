package claims

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
)

func TestRenderLookup(t *testing.T) {
	c := Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt"},
		Attribute: "money",
		Op:        OpLookup,
		Value:     "570",
	}
	got := c.Render()
	want := "In 1954 u.s. open (golf), the money for tommy bolt was 570."
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
	if c.Text != want {
		t.Error("Render did not store Text")
	}
}

func TestRenderSumThreeEntities(t *testing.T) {
	c := Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt", "fred haas", "ben hogan"},
		Attribute: "cash prize",
		Op:        OpSum,
		Value:     "960",
	}
	got := c.Render()
	want := "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total."
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestParseRoundtripAllOps(t *testing.T) {
	cases := []Claim{
		{Context: "ctx one", Entities: []string{"alice smith"}, Attribute: "score", Op: OpLookup, Value: "42"},
		{Context: "ctx two", Entities: []string{"a b", "c d"}, Attribute: "money", Op: OpSum, Value: "100"},
		{Context: "ctx three", Entities: []string{"a b", "c d", "e f"}, Attribute: "gold", Op: OpAvg, Value: "3.5"},
		{Context: "ctx four", Entities: []string{"a b", "c d"}, Attribute: "total", Op: OpMin, Value: "7"},
		{Context: "ctx five", Entities: []string{"a b", "c d"}, Attribute: "rank", Op: OpMax, Value: "9"},
		{Context: "ctx six", Entities: []string{"republican"}, Attribute: "party", Op: OpCount, Value: "3"},
	}
	for _, c := range cases {
		text := c.Render()
		got, err := Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		if got.Op != c.Op || got.Context != c.Context || got.Attribute != c.Attribute || got.Value != c.Value {
			t.Errorf("Parse(%q) = %+v, want %+v", text, got, c)
		}
		if !reflect.DeepEqual(got.Entities, c.Entities) {
			t.Errorf("Parse(%q) entities = %v, want %v", text, got.Entities, c.Entities)
		}
	}
}

func TestParseRoundtripProperty(t *testing.T) {
	// Random structured claims built from a safe alphabet roundtrip exactly.
	words := []string{"alpha", "beta", "gamma", "delta", "omega", "sigma"}
	ops := []AggOp{OpLookup, OpSum, OpAvg, OpMin, OpMax}
	f := func(seed uint64) bool {
		r := detrand.New(seed, "claim")
		nEnts := r.IntRange(1, 3)
		ents := make([]string, nEnts)
		for i := range ents {
			ents[i] = words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
		}
		c := Claim{
			Context:   words[r.Intn(len(words))] + " " + words[r.Intn(len(words))],
			Entities:  ents,
			Attribute: words[r.Intn(len(words))],
			Op:        ops[r.Intn(len(ops))],
			Value:     words[r.Intn(len(words))],
		}
		text := c.Render()
		got, err := Parse(text)
		if err != nil {
			return false
		}
		return got.Op == c.Op && got.Context == c.Context &&
			got.Attribute == c.Attribute && got.Value == c.Value &&
			reflect.DeepEqual(got.Entities, c.Entities)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsFreeform(t *testing.T) {
	for _, text := range []string{
		"",
		"The weather is nice today.",
		"In incomplete",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
}

func TestSplitEntities(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"alice smith", []string{"alice smith"}},
		{"a b and c d", []string{"a b", "c d"}},
		{"a b, c d, and e f", []string{"a b", "c d", "e f"}},
		{"", nil},
	}
	for _, tc := range tests {
		if got := splitEntities(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitEntities(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestOpAndOutcomeStrings(t *testing.T) {
	if OpSum.String() != "sum" || OpLookup.String() != "lookup" || OpCount.String() != "count" {
		t.Error("AggOp.String wrong")
	}
	if Supports.String() != "supports" || Refutes.String() != "refutes" || Unrelated.String() != "unrelated" {
		t.Error("Outcome.String wrong")
	}
	if !strings.Contains(AggOp(99).String(), "99") || !strings.Contains(Outcome(99).String(), "99") {
		t.Error("unknown enum Strings wrong")
	}
}
