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
// the entity nor the number costs no allocation, whatever the value and
// the cells hold: the value is folded and parsed once, when the query is
// bound, and cells are compared in place.
func TestTableContainsAllocatesNothing(t *testing.T) {
	tbl := usOpen1954()
	tbl.MustAppendRow("t9", "Gene Littler, Jr.", "$1,200")
	tbl.MustAppendRow("t10", "São Paulo", "4.5%")
	for _, v := range []string{"arnold palmer", "1400", "$6,000", "-3.5"} {
		k := newCellKey(v)
		if k.in(tbl.Rows) {
			t.Fatalf("the table contains %q", v)
		}
		if n := testing.AllocsPerRun(100, func() { k.in(tbl.Rows) }); n != 0 {
			t.Errorf("matching %q allocates %v times", v, n)
		}
	}
	for _, v := range []string{"Tommy Bolt", "gene littler jr", "1200", "570.0", "sao paulo"} {
		k := newCellKey(v)
		if got := k.in(tbl.Rows); got != (v != "sao paulo") {
			t.Errorf("the table contains %q: %v", v, got)
		}
	}
}

// TestCandidateSideAllocatesNothing: once a query is bound, scoring a
// candidate whose tokens the dictionary holds allocates nothing — the
// fold-aware context search, the streaming term containment, caption
// Jaccard, column containment and the cell scans — for each scorer on
// the workloads' paths, and for OpenTFV's bag-of-words fallback.
func TestCandidateSideAllocatesNothing(t *testing.T) {
	dict := textutil.NewDict()
	tbl := usOpen1954()
	tp, _ := tbl.TupleAt(0)
	page := docInstance("a", "Tommy Bolt",
		"Tommy Bolt is a golfer. In the 1954 u.s. open (golf), Tommy Bolt recorded a money of 570.")
	cl := claims.Claim{Context: "1954 u.s. open (golf)", Entities: []string{"tommy bolt", "fred haas"},
		Attribute: "cash prize", Op: claims.OpSum, Value: "1,140"}
	cl.Render()
	tupleQ := Query{Text: tp.SerializeForIndex(), Tuple: &tp}
	for _, s := range []string{page.Doc.SerializeForIndex(), tbl.SerializeForIndex(), tupleQ.Text, cl.Text} {
		dict.AppendIDs(nil, s)
	}
	for _, c := range []struct {
		name string
		s    scorer
		q    Query
		inst datalake.Instance
	}{
		{"tuple-text", NewTupleTextScorer(dict), tupleQ, page},
		{"tuple-tuple", NewTupleTupleScorer(), tupleQ, tupleInstance(tbl, 1)},
		{"opentfv/table", NewOpenTFV(dict), Query{Text: cl.Text, Claim: &cl}, tableInstance(tbl)},
		{"opentfv/tuple", NewOpenTFV(dict), Query{Text: cl.Text, Claim: &cl}, tupleInstance(tbl, 2)},
		{"opentfv/fallback", NewOpenTFV(dict), Query{Text: cl.Text}, tableInstance(tbl)},
	} {
		score := c.s.bind(c.q)
		if score(c.inst) == 0 {
			t.Fatalf("%s: scored 0", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { score(c.inst) }); n != 0 {
			t.Errorf("%s: scoring a candidate allocates %v times", c.name, n)
		}
	}
	terms := newTermSet(dict, tupleQ.Text)
	if n := testing.AllocsPerRun(100, func() { terms.reset(); terms.scan(page.Doc.Text) }); n != 0 {
		t.Errorf("streaming containment allocates %v times", n)
	}
}

// TestEmptyCaptionMatchesNoContext: a query tuple whose caption folds to
// nothing gives no document the context signal; strings.Contains would
// have found the empty key in every text.
func TestEmptyCaptionMatchesNoContext(t *testing.T) {
	s := NewTupleTextScorer(textutil.NewDict())
	page := docInstance("a", "Gene Littler", "Gene Littler is a golfer. (!) Nothing here matches.")
	for _, caption := range []string{"", "(!)", " — "} {
		tp := table.Tuple{Caption: caption, Columns: []string{"player"}, Values: []string{"tommy bolt"}}
		if got := s.Score(Query{Text: "tommy bolt", Tuple: &tp}, page); got != 0 {
			t.Errorf("caption %q: scored %v, want 0 (no title, context or token match)", caption, got)
		}
	}
}

// TestContainmentSimilarity: the share of a query's distinct tokens (or
// analyzed terms) a candidate's cover, streamed over the candidate's
// pieces: full, half, none for a query without any, and a repeated query
// token counted once.
func TestContainmentSimilarity(t *testing.T) {
	dict := textutil.NewDict()
	for _, c := range []struct {
		query  string
		pieces []string
		want   float64
	}{
		{"x y", []string{"x y", "z w"}, 1},
		{"x y z w", []string{"x", "y"}, 0.5},
		{"", []string{"x y z w"}, 0},
		{"x x q", []string{"x"}, 0.5},
	} {
		if got := newTokenSet(c.query).containment(c.pieces); got != c.want {
			t.Errorf("tokens of %q in %q: %v, want %v", c.query, c.pieces, got, c.want)
		}
		terms := newTermSet(dict, c.query)
		terms.reset()
		for _, p := range c.pieces {
			terms.scan(p)
		}
		if got := terms.share(); got != c.want {
			t.Errorf("terms of %q in %q: %v, want %v", c.query, c.pieces, got, c.want)
		}
	}
}
