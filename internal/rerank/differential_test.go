package rerank_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/textutil"
	"repro/internal/workload"
)

// reference scores as the rerankers did when every candidate was a heap
// copy and every score analyzed its query and its candidate afresh: the
// bodies the scorers had then, routed as the Registry routes.
type reference struct{ emb *embed.Embedder }

func (r reference) score(q rerank.Query, inst datalake.Instance) float64 {
	switch {
	case q.Tuple != nil && inst.Kind == datalake.KindTuple:
		return refTupleTuple(q, inst)
	case q.Tuple != nil && inst.Kind == datalake.KindText:
		return r.tupleText(q, inst)
	case q.Claim != nil && (inst.Kind == datalake.KindTable || inst.Kind == datalake.KindTuple):
		return r.openTFV(q, inst)
	default:
		return r.colbert(q, inst)
	}
}

func (r reference) openTFV(q rerank.Query, inst datalake.Instance) float64 {
	var t *table.Table
	switch inst.Kind {
	case datalake.KindTable:
		t = inst.Table
	case datalake.KindTuple:
		t = table.New(inst.Tuple.TableID, inst.Tuple.Caption, inst.Tuple.Columns)
		t.Rows = [][]string{inst.Tuple.Values}
	default:
		return 0
	}
	dict := r.emb.Dict()
	if q.Claim == nil {
		return containmentRef(dict.AppendTerms(nil, q.Text), dict.AppendTerms(nil, t.SerializeForIndex()))
	}
	c := q.Claim
	capSim := textutil.Jaccard(textutil.Tokenize(c.Context), textutil.Tokenize(t.Caption))
	entityCov := 0.0
	if len(c.Entities) > 0 {
		hit := 0
		for _, e := range c.Entities {
			if tableContainsRef(t, e) {
				hit++
			}
		}
		entityCov = float64(hit) / float64(len(c.Entities))
	}
	valueSig := 0.0
	if containmentRef(textutil.Tokenize(c.Attribute), textutil.Tokenize(strings.Join(t.Columns, " "))) >= 0.5 {
		valueSig += 0.5
	}
	if tableContainsRef(t, c.Value) {
		valueSig += 0.5
	}
	return 0.5*capSim + 0.35*entityCov + 0.15*valueSig
}

func tableContainsRef(t *table.Table, v string) bool {
	want := textutil.Fold(v)
	num, isNum := textutil.ParseNumber(v)
	for _, row := range t.Rows {
		for _, cell := range row {
			if textutil.FoldEqual(cell, want) {
				return true
			}
			if isNum {
				if cv, ok := textutil.ParseNumber(cell); ok && textutil.NearlyEqual(cv, num) {
					return true
				}
			}
		}
	}
	return false
}

func containmentRef(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	sb := make(map[string]struct{}, len(b))
	for _, t := range b {
		sb[t] = struct{}{}
	}
	hit := 0
	seen := make(map[string]struct{}, len(a))
	for _, t := range a {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if _, ok := sb[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(seen))
}

func refTupleTuple(q rerank.Query, inst datalake.Instance) float64 {
	ev := inst.Tuple
	capSim := textutil.Jaccard(textutil.Tokenize(q.Tuple.Caption), textutil.Tokenize(ev.Caption))
	shared, agree := 0, 0
	for i, c := range q.Tuple.Columns {
		evVal, ok := ev.Value(c)
		if !ok {
			continue
		}
		shared++
		qv := q.Tuple.Values[i]
		if qv == "" || qv == "NaN" || textutil.Fold(evVal) == textutil.Fold(qv) {
			agree++
		}
	}
	cellSim := 0.0
	if shared > 0 {
		cellSim = float64(agree) / float64(shared)
	}
	return 0.3*capSim + 0.7*cellSim
}

// tupleText is the old body but for the empty-caption fix, the one
// intended difference: a caption that folds to "" is no context.
func (r reference) tupleText(q rerank.Query, inst datalake.Instance) float64 {
	d := inst.Doc
	title := textutil.Fold(d.Title)
	titleSig := 0.0
	for _, v := range q.Tuple.Values {
		if f := textutil.Fold(v); f != "" && f == title {
			titleSig = 1
			break
		}
	}
	ctxSig := 0.0
	if c := textutil.Fold(q.Tuple.Caption); c != "" && strings.Contains(textutil.Fold(d.Text), c) {
		ctxSig = 1
	}
	dict := r.emb.Dict()
	tokenSig := containmentRef(dict.AppendTerms(nil, q.Text), dict.AppendTerms(nil, d.SerializeForIndex()))
	return 0.5*titleSig + 0.3*ctxSig + 0.2*tokenSig
}

func (r reference) colbert(q rerank.Query, inst datalake.Instance) float64 {
	qTokens := r.emb.EmbedTokens(q.Text)
	if len(qTokens) == 0 {
		return 0
	}
	dTokens := r.emb.EmbedTokens(inst.Serialize())
	if len(dTokens) > 256 {
		dTokens = dTokens[:256]
	}
	if len(dTokens) == 0 {
		return 0
	}
	var sum float64
	for _, qt := range qTokens {
		best := -1.0
		for _, dt := range dTokens {
			if s := embed.Dot(qt, dt); s > best {
				best = s
			}
		}
		sum += best
	}
	return (sum/float64(len(qTokens)) + 1) / 2
}

// diffEnv is a small generated lake, its indexer, the claim and tuple
// queries of its tasks, and the candidates retrieval hands the rerankers
// for each, with their reference scores from heap copies.
type diffEnv struct {
	corpus  *workload.Corpus
	reg     *rerank.Registry
	direct  []rerank.Scorer // every scorer, scored alone as well as routed
	ref     reference
	queries []rerank.Query
	ids     [][]string
	want    []map[string]float64
	pairs   int
}

func newDiffEnv(t *testing.T) *diffEnv {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 200, 100
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { corpus.Lake.Close() })
	ix, err := core.BuildIndexer(corpus.Lake, core.DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	emb := ix.Embedder()
	e := &diffEnv{corpus: corpus, reg: rerank.NewRegistry(rerank.NewColBERT(emb, 256)), ref: reference{emb}}
	e.direct = []rerank.Scorer{rerank.NewOpenTFV(emb.Dict()), rerank.NewTupleTupleScorer(), rerank.NewTupleTextScorer(emb.Dict())}

	claimTasks, err := corpus.ClaimTasks(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range claimTasks {
		c := ct.Claim
		e.queries = append(e.queries, rerank.Query{Text: c.Text, Claim: &c}, rerank.Query{Text: c.Text})
	}
	tupleTasks, err := corpus.TupleTasks(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tupleTasks {
		for _, tp := range []table.Tuple{tt.Tuple.WithValue(tt.MaskedAttr(), table.Missing), tt.Tuple} {
			if textutil.Fold(tp.Caption) == "" {
				t.Fatalf("task tuple %v has no caption", tp)
			}
			e.queries = append(e.queries, rerank.Query{Text: tp.SerializeForIndex(), Tuple: &tp})
		}
	}
	for _, q := range e.queries {
		// The kinds the workloads ask for: tables for claims (tuples too,
		// which the same scorer reads), tuples and texts for tuples.
		kinds := []datalake.Kind{datalake.KindTable, datalake.KindTuple}
		if q.Tuple != nil {
			kinds = []datalake.Kind{datalake.KindTuple, datalake.KindText}
		}
		_, ids := ix.Retrieve(q.Text, 20, kinds...)
		want := make(map[string]float64, len(ids))
		for _, id := range ids {
			inst, err := corpus.Lake.Resolve(id)
			if err != nil {
				t.Fatal(err)
			}
			if routed(q) {
				want[id] = e.ref.score(q, inst)
			}
		}
		e.ids, e.want = append(e.ids, ids), append(e.want, want)
	}
	return e
}

// routed reports whether the Registry routes q to the structured
// scorers: a query with neither a claim nor a tuple is here only for
// OpenTFV's bag-of-words fallback, which is called directly.
func routed(q rerank.Query) bool { return q.Claim != nil || q.Tuple != nil }

// check scores query qi's borrowed candidates with the Registry, and with
// direct each scorer alone too, and fails unless every score is bit-equal
// to the reference's over heap copies. The candidates are the query's, in
// retrieval order.
func (e *diffEnv) check(t *testing.T, from string, qi int, cands []datalake.Instance, direct bool) {
	t.Helper()
	q, want := e.queries[qi], e.want[qi]
	for _, s := range e.reg.Rerank(q, cands, len(cands)) {
		if !routed(q) {
			break
		}
		if math.Float64bits(s.Score) != math.Float64bits(want[s.ID]) {
			t.Fatalf("%s: %q against %s: Rerank scored %v, the reference %v", from, q.Text, s.ID, s.Score, want[s.ID])
		}
		e.pairs++
	}
	for _, inst := range cands {
		if !direct {
			break
		}
		for _, s := range e.direct {
			got, ref := s.Score(q, inst), e.directRef(s, q, inst)
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("%s: %s scored %q against %s %v, the reference %v", from, s.Name(), q.Text, inst.ID, got, ref)
			}
		}
	}
}

// directRef is the reference score of scorer s called directly, on any
// query and candidate kind.
func (e *diffEnv) directRef(s rerank.Scorer, q rerank.Query, inst datalake.Instance) float64 {
	switch s.(type) {
	case *rerank.OpenTFV:
		return e.ref.openTFV(q, inst)
	case *rerank.TupleTupleScorer:
		if q.Tuple == nil || inst.Kind != datalake.KindTuple {
			return 0
		}
		return refTupleTuple(q, inst)
	default:
		if q.Tuple == nil || inst.Kind != datalake.KindText {
			return 0
		}
		return e.ref.tupleText(q, inst)
	}
}

// copyLake loads corpus's tables, documents and triples into a new lake,
// sealing after every chunk of the tables and documents, so the lake holds several segments merged
// and unmerged, and leaving the last chunk in its tail.
func copyLake(t *testing.T, corpus *workload.Corpus, chunks int) *datalake.Lake {
	t.Helper()
	l := datalake.New()
	tables, docs := corpus.Lake.TableIDs(), corpus.Lake.DocIDs()
	for c := range chunks {
		for _, id := range tables[c*len(tables)/chunks : (c+1)*len(tables)/chunks] {
			tb, _ := corpus.Lake.Table(id)
			if err := l.AddTable(tb); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range docs[c*len(docs)/chunks : (c+1)*len(docs)/chunks] {
			d, _ := corpus.Lake.Document(id)
			if err := l.AddDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		if c == 0 {
			for _, tr := range corpus.Lake.Triples() {
				if err := l.AddTriple(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c < chunks-1 {
			if _, err := l.Fork(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l.TailBytes() == 0 {
		t.Fatal("the copy's last chunk was sealed")
	}
	return l
}

// TestScoresMatchReference: for every (query, candidate) pair retrieval
// hands the rerankers on the claim and tuple tasks of a small generated
// lake, each score through the Registry is bit-equal to the reference's
// over a heap copy, when the candidates are borrowed from the lake's tail,
// from a lake of many sealed segments with a tail, from a pinned View, and
// from the lake once the fork has sealed it; and so is each structured
// scorer's alone, on any kind of candidate, from the many segments.
func TestScoresMatchReference(t *testing.T) {
	e := newDiffEnv(t)
	lake := e.corpus.Lake
	if lake.TailBytes() == 0 {
		t.Fatal("the generated lake has no tail")
	}
	borrowEach := func(from string, borrow func(ids []string, fn func([]datalake.Instance) error) error) {
		for qi, ids := range e.ids {
			if err := borrow(ids, func(cands []datalake.Instance) error {
				e.check(t, from, qi, cands, from == "segments")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	borrowEach("tail", lake.ResolveBorrowed)
	borrowEach("segments", copyLake(t, e.corpus, 5).ResolveBorrowed)
	view, err := lake.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	borrowEach("view", func(ids []string, fn func([]datalake.Instance) error) error {
		return view.ResolveBorrowed(ids, lake.Graph(), fn)
	})
	if lake.TailBytes() != 0 {
		t.Fatal("the fork left a tail")
	}
	borrowEach("sealed", lake.ResolveBorrowed)
	if e.pairs < 4000 {
		t.Fatalf("only %d pairs scored", e.pairs)
	}
	t.Logf("%d pairs bit-equal, 4 ways", e.pairs)
}

// TestBorrowedScoresOutliveTheirLake: candidates borrowed from a lake or a
// View score as the reference does while, between one candidate and the
// next, the lake seals and merges its segments, every reference to the
// lake or View but the borrowing call's own is dropped, and the collector
// runs — at every percent of heap growth — so a segment nothing kept
// would be unmapped under the strings its candidates alias.
func TestBorrowedScoresOutliveTheirLake(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	e := newDiffEnv(t)
	extra := 0
	for qi, ids := range e.ids {
		if qi%2 != 0 {
			continue // the claims and masked tuples
		}
		lake := copyLake(t, e.corpus, 3)
		view, err := lake.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		score := func(from string, cands []datalake.Instance) {
			for i := range cands {
				if i%4 == 0 && lake != nil {
					// A seal of a few tables merges the newest segments.
					for range 3 {
						tb := table.New(fmt.Sprintf("extra-%d", extra), "extra", []string{"a"})
						tb.MustAppendRow("b")
						extra++
						if err := lake.AddTable(tb); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := lake.Fork(nil); err != nil {
						t.Fatal(err)
					}
				}
				if i == len(cands)/2 {
					lake.Close()
					lake = nil
				}
				runtime.GC()
				e.check(t, from, qi, cands[i:i+1], false)
			}
			e.check(t, from, qi, cands, false)
		}
		if qi%4 == 0 {
			view = nil
			err = lake.ResolveBorrowed(ids, func(cands []datalake.Instance) error { score("lake", cands); return nil })
		} else {
			v := view
			view = nil
			err = v.ResolveBorrowed(ids, lake.Graph(), func(cands []datalake.Instance) error { score("view", cands); return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
