package rerank

import (
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/textutil"
)

func newColBERT() *ColBERT {
	return NewColBERT(embed.NewEmbedder(64, 1), 128)
}

func docInstance(id, title, text string) datalake.Instance {
	return datalake.Instance{
		ID:   "text:" + id,
		Kind: datalake.KindText,
		Doc:  &doc.Document{ID: id, Title: title, Text: text},
	}
}

func tableInstance(t *table.Table) datalake.Instance {
	return datalake.Instance{ID: "table:" + t.ID, Kind: datalake.KindTable, Table: t}
}

func tupleInstance(t *table.Table, row int) datalake.Instance {
	tp, _ := t.TupleAt(row)
	return datalake.Instance{ID: datalake.TupleInstanceID(t.ID, row), Kind: datalake.KindTuple, Tuple: &tp}
}

func usOpen1954() *table.Table {
	t := table.New("e1", "1954 u.s. open (golf)", []string{"place", "player", "money"})
	t.MustAppendRow("t6", "tommy bolt", "570")
	t.MustAppendRow("t6", "fred haas", "570")
	t.MustAppendRow("t6", "ben hogan", "570")
	return t
}

func usOpen1959() *table.Table {
	t := table.New("e2", "1959 u.s. open (golf)", []string{"player", "total"})
	t.MustAppendRow("ben hogan", "287")
	t.MustAppendRow("tommy bolt", "301")
	return t
}

func TestColBERTRanksExactMatchHighest(t *testing.T) {
	c := newColBERT()
	q := Query{Text: "springfield golf tournament prize money"}
	same := c.Score(q, docInstance("a", "", "springfield golf tournament prize money"))
	related := c.Score(q, docInstance("b", "", "the golf tournament in springfield awarded prize money to the winner"))
	unrelated := c.Score(q, docInstance("c", "", "monthly precipitation in riverton was high"))
	if !(same >= related && related > unrelated) {
		t.Errorf("ColBERT ordering: same=%v related=%v unrelated=%v", same, related, unrelated)
	}
	if same < 0 || same > 1 {
		t.Errorf("ColBERT score out of [0,1]: %v", same)
	}
}

func TestColBERTEmptyInputs(t *testing.T) {
	c := newColBERT()
	if got := c.Score(Query{Text: ""}, docInstance("a", "", "content")); got != 0 {
		t.Errorf("empty query score = %v", got)
	}
	if got := c.Score(Query{Text: "query"}, docInstance("a", "", "")); got != 0 {
		t.Errorf("empty doc score = %v", got)
	}
}

func TestOpenTFVFigure4Ordering(t *testing.T) {
	// The 1954 table must outrank the 1959 table for the Figure 4 claim,
	// even though both contain the claimed players.
	o := NewOpenTFV(textutil.NewDict())
	cl := claims.Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt", "fred haas", "ben hogan"},
		Attribute: "cash prize",
		Op:        claims.OpSum,
		Value:     "960",
	}
	cl.Render()
	q := Query{Text: cl.Text, Claim: &cl}
	s1954 := o.Score(q, tableInstance(usOpen1954()))
	s1959 := o.Score(q, tableInstance(usOpen1959()))
	if s1954 <= s1959 {
		t.Errorf("OpenTFV: 1954=%v <= 1959=%v", s1954, s1959)
	}
}

func TestOpenTFVUnstructuredFallback(t *testing.T) {
	o := NewOpenTFV(textutil.NewDict())
	q := Query{Text: "tommy bolt money 570"}
	s := o.Score(q, tableInstance(usOpen1954()))
	if s <= 0 || s > 1 {
		t.Errorf("fallback score = %v", s)
	}
	// Non-table instances score zero.
	if got := o.Score(q, docInstance("d", "", "text")); got != 0 {
		t.Errorf("doc instance scored %v by OpenTFV", got)
	}
}

func TestTupleTupleScorerPrefersCounterpart(t *testing.T) {
	s := NewTupleTupleScorer()
	tbl := usOpen1954()
	query, _ := tbl.TupleAt(0)
	masked := query.WithValue("money", "NaN")
	q := Query{Text: masked.SerializeForIndex(), Tuple: &masked}

	counterpart := s.Score(q, tupleInstance(tbl, 0))
	sibling := s.Score(q, tupleInstance(tbl, 2))
	other := s.Score(q, tupleInstance(usOpen1959(), 0))
	if !(counterpart > sibling && counterpart > other) {
		t.Errorf("counterpart=%v sibling=%v other=%v", counterpart, sibling, other)
	}
	// Wrong instance kinds and missing tuples score zero.
	if got := s.Score(q, tableInstance(tbl)); got != 0 {
		t.Errorf("table instance = %v", got)
	}
	if got := s.Score(Query{Text: "x"}, tupleInstance(tbl, 0)); got != 0 {
		t.Errorf("tupleless query = %v", got)
	}
}

func TestTupleTextScorerPrefersEntityPageWithContext(t *testing.T) {
	s := NewTupleTextScorer(textutil.NewDict())
	tbl := usOpen1954()
	tp, _ := tbl.TupleAt(0)
	q := Query{Text: tp.SerializeForIndex(), Tuple: &tp}

	withCtx := docInstance("a", "Tommy Bolt",
		"Tommy Bolt is a golfer. In the 1954 u.s. open (golf), Tommy Bolt recorded a money of 570.")
	noCtx := docInstance("b", "Tommy Bolt", "Tommy Bolt is a golfer born long ago.")
	wrongEntity := docInstance("c", "Gene Littler", "Gene Littler is a golfer.")

	a, b, c := s.Score(q, withCtx), s.Score(q, noCtx), s.Score(q, wrongEntity)
	if !(a > b && b > c) {
		t.Errorf("tuple-text ordering: ctx=%v noctx=%v wrong=%v", a, b, c)
	}
}

func TestRegistryRouting(t *testing.T) {
	r := NewRegistry(newColBERT())
	tbl := usOpen1954()
	tp, _ := tbl.TupleAt(0)
	cl := claims.Claim{Context: "c", Entities: []string{"e"}, Attribute: "a", Op: claims.OpLookup, Value: "v"}

	tupleQ := Query{Text: "t", Tuple: &tp}
	claimQ := Query{Text: "c", Claim: &cl}
	plainQ := Query{Text: "p"}

	if got := r.Route(tupleQ, datalake.KindTuple).Name(); got != "retclean-cell-alignment" {
		t.Errorf("tuple/tuple -> %s", got)
	}
	if got := r.Route(tupleQ, datalake.KindText).Name(); got != "tuple-text-context" {
		t.Errorf("tuple/text -> %s", got)
	}
	if got := r.Route(claimQ, datalake.KindTable).Name(); got != "opentfv-semantic" {
		t.Errorf("claim/table -> %s", got)
	}
	if got := r.Route(claimQ, datalake.KindTuple).Name(); got != "opentfv-semantic" {
		t.Errorf("claim/tuple -> %s", got)
	}
	if got := r.Route(claimQ, datalake.KindText).Name(); got != "colbert-late-interaction" {
		t.Errorf("claim/text -> %s", got)
	}
	if got := r.Route(plainQ, datalake.KindEntity).Name(); got != "colbert-late-interaction" {
		t.Errorf("fallback -> %s", got)
	}
}

func TestRerankTopKPrime(t *testing.T) {
	r := NewRegistry(newColBERT())
	tbl1954, tbl1959 := usOpen1954(), usOpen1959()
	cl := claims.Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt"},
		Attribute: "money",
		Op:        claims.OpLookup,
		Value:     "570",
	}
	cl.Render()
	q := Query{Text: cl.Text, Claim: &cl}
	candidates := []datalake.Instance{tableInstance(tbl1959), tableInstance(tbl1954)}

	top := r.Rerank(q, candidates, 1)
	if len(top) != 1 || top[0].ID != "table:e1" {
		t.Errorf("Rerank top-1 = %v", top)
	}
	all := r.Rerank(q, candidates, 10)
	if len(all) != 2 {
		t.Errorf("Rerank returned %d", len(all))
	}
	if all[0].Score < all[1].Score {
		t.Error("Rerank not sorted")
	}
	if got := r.Rerank(q, candidates, 0); got != nil {
		t.Error("kPrime=0 returned results")
	}
	if got := r.Rerank(q, nil, 3); got != nil {
		t.Error("no candidates returned results")
	}
}

// TestTableContainsAllocatesNothing: scanning a table that holds neither
// the entity nor the number costs no allocation for a value that is its
// own folded key, as claimed entities and integers are, and one (the key)
// for any other value, whatever the cells hold.
func TestTableContainsAllocatesNothing(t *testing.T) {
	tbl := usOpen1954()
	tbl.MustAppendRow("t9", "Gene Littler, Jr.", "$1,200")
	tbl.MustAppendRow("t10", "São Paulo", "4.5%")
	for v, allocs := range map[string]float64{"arnold palmer": 0, "1400": 0, "$6,000": 1, "-3.5": 1} {
		if tableContains(tbl, v) {
			t.Fatalf("the table contains %q", v)
		}
		if n := testing.AllocsPerRun(100, func() { tableContains(tbl, v) }); n != allocs {
			t.Errorf("tableContains(%q) allocates %v times, want %v", v, n, allocs)
		}
	}
	for _, v := range []string{"Tommy Bolt", "gene littler jr", "1200", "570.0", "sao paulo"} {
		if got := tableContains(tbl, v); got != (v != "sao paulo") {
			t.Errorf("tableContains(%q) = %v", v, got)
		}
	}
}
