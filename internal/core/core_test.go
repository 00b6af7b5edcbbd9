package core

import (
	"strings"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
)

// smallLake builds a lake with the Figure 4 tables, a couple of distractor
// tables, an entity page, and KG triples.
func smallLake(t *testing.T) *datalake.Lake {
	t.Helper()
	l := datalake.New()
	l.AddSource(datalake.Source{ID: "s1", Name: "tables", TrustPrior: 0.8})
	l.AddSource(datalake.Source{ID: "s2", Name: "texts", TrustPrior: 0.7})

	e1 := table.New("e1", "1954 u.s. open (golf)", []string{"place", "player", "country", "money"})
	e1.SourceID = "s1"
	e1.MustAppendRow("t1", "ed furgol", "united states", "6000")
	e1.MustAppendRow("t6", "tommy bolt", "united states", "570")
	e1.MustAppendRow("t6", "fred haas", "united states", "570")
	e1.MustAppendRow("t6", "ben hogan", "united states", "570")

	e2 := table.New("e2", "1959 u.s. open (golf)", []string{"player", "country", "total"})
	e2.SourceID = "s1"
	e2.MustAppendRow("ben hogan", "united states", "287")
	e2.MustAppendRow("tommy bolt", "united states", "301")

	d1 := table.New("d1", "climate of dover kansas", []string{"month", "record high"})
	d1.SourceID = "s1"
	d1.MustAppendRow("january", "55")
	d1.MustAppendRow("july", "101")

	for _, tbl := range []*table.Table{e1, e2, d1} {
		if err := l.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}

	page := &doc.Document{
		ID: "doc1", Title: "Tommy Bolt", SourceID: "s2",
		Text: "Tommy Bolt is a united states golfer. In the 1954 u.s. open (golf), Tommy Bolt recorded a money of 570.",
	}
	if err := l.AddDocument(page); err != nil {
		t.Fatal(err)
	}
	l.AddTriple(kg.Triple{Subject: "tommy bolt", Predicate: "money of 1954 u.s. open (golf)", Object: "570", SourceID: "s1"})
	return l
}

func buildPipeline(t *testing.T, lake *datalake.Lake, useReranker bool) *Pipeline {
	t.Helper()
	indexer, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 128))
	agent := verify.NewAgent(verify.NewExactVerifier())
	cfg := DefaultPipelineConfig()
	cfg.UseReranker = useReranker
	p, err := NewPipeline(lake, indexer, registry, agent, provenance.NewStore(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func golfClaimObject() verify.Generated {
	c := claims.Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt", "fred haas", "ben hogan"},
		Attribute: "cash prize",
		Op:        claims.OpSum,
		Value:     "960",
	}
	c.Render()
	return verify.NewClaimObject("golf", c)
}

func TestBuildIndexerValidation(t *testing.T) {
	lake := smallLake(t)
	if _, err := BuildIndexer(lake, IndexerConfig{EmbedDim: 8}); err == nil {
		t.Error("indexer with no families accepted")
	}
}

func TestIndexerRetrieveKinds(t *testing.T) {
	lake := smallLake(t)
	ix, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Kind filter: table-only retrieval returns only table instances.
	_, ids := ix.Retrieve("1954 golf tommy bolt money", 5, datalake.KindTable)
	if len(ids) == 0 {
		t.Fatal("no table hits")
	}
	for _, id := range ids {
		if k, _ := datalake.KindOf(id); k != datalake.KindTable {
			t.Errorf("non-table instance %q in table retrieval", id)
		}
	}
	if ids[0] != "table:e1" {
		t.Errorf("top table = %s, want table:e1", ids[0])
	}
	// All-kind retrieval mixes modalities.
	_, all := ix.Retrieve("tommy bolt 1954 money", 10)
	kinds := map[datalake.Kind]bool{}
	for _, id := range all {
		k, _ := datalake.KindOf(id)
		kinds[k] = true
	}
	if len(kinds) < 3 {
		t.Errorf("all-kind retrieval returned kinds %v", kinds)
	}
}

func TestIndexerRetrieveFamily(t *testing.T) {
	lake := smallLake(t)
	ix, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	bm25 := ix.RetrieveFamily("tommy bolt 1954", "bm25", 3, datalake.KindTable)
	vec := ix.RetrieveFamily("tommy bolt 1954", "vector", 3, datalake.KindTable)
	if len(bm25) == 0 || len(vec) == 0 {
		t.Fatalf("family retrieval empty: bm25=%v vec=%v", bm25, vec)
	}
	if got := ix.RetrieveFamily("q", "unknown-family", 3); got != nil {
		t.Errorf("unknown family returned %v", got)
	}
}

func TestIndexerBM25OnlyAndVectorOnly(t *testing.T) {
	lake := smallLake(t)
	cfg := DefaultIndexerConfig(1)
	cfg.EnableVector = false
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ids := ix.Retrieve("tommy bolt", 3, datalake.KindTuple)
	if len(ids) == 0 {
		t.Error("bm25-only retrieval empty")
	}

	cfg2 := DefaultIndexerConfig(1)
	cfg2.EnableBM25 = false
	ix2, err := BuildIndexer(lake, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	_, ids2 := ix2.Retrieve("tommy bolt united states golfer", 3, datalake.KindText)
	if len(ids2) == 0 {
		t.Error("vector-only retrieval empty")
	}
}

func TestIndexerChunking(t *testing.T) {
	lake := smallLake(t)
	cfg := DefaultIndexerConfig(1)
	cfg.ChunkTokens = 8
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk hits must be mapped back to their parent document instance.
	_, ids := ix.Retrieve("tommy bolt golfer", 5, datalake.KindText)
	for _, id := range ids {
		if strings.Contains(id, "@") {
			t.Errorf("chunk id leaked: %q", id)
		}
	}
	if len(ids) == 0 {
		t.Error("chunked retrieval empty")
	}
}

// TestVectorHitsKeepInstanceIDs: a vector hit is credited to the instance
// indexed under that row, even one whose ID ends in "@<digits>" as a chunk's
// does. Only chunked text rows carry a chunk suffix to strip, and there a
// document's own ID may end in "@7".
func TestVectorHitsKeepInstanceIDs(t *testing.T) {
	lake := datalake.New()
	defer lake.Close()
	rain := table.New("q", "monthly rainfall in dover kansas", []string{"month", "inches"})
	rain.MustAppendRow("january", "1.2")
	rain.MustAppendRow("july", "4.5")
	golf := table.New("q@1", "1954 u.s. open (golf) prize money", []string{"player", "money"})
	golf.MustAppendRow("tommy bolt", "570")
	golf.MustAppendRow("ed furgol", "6000")
	for _, tbl := range []*table.Table{rain, golf} {
		if err := lake.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := lake.AddDocument(&doc.Document{ID: "report@7", Title: "golf report",
		Text: "the 1954 u.s. open golf prize money went to ed furgol while tommy bolt and ben hogan tied for sixth place"}); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 8} {
		cfg := DefaultIndexerConfig(1)
		cfg.EnableBM25, cfg.ChunkTokens = false, chunk
		ix, err := BuildIndexer(lake, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		hits, _ := ix.Retrieve("1954 u.s. open golf prize money tommy bolt", 2, datalake.KindTable)
		if len(hits) != 2 || hits[0].InstanceID != "table:q@1" || hits[1].InstanceID != "table:q" {
			t.Errorf("chunk tokens %d: table hits %+v, want table:q@1 then table:q", chunk, hits)
		}
		hits, ids := ix.Retrieve("golf prize money tommy bolt", 5, datalake.KindText)
		for _, h := range hits {
			if h.InstanceID != "text:report@7" {
				t.Errorf("chunk tokens %d: text hit %+v, want text:report@7", chunk, h)
			}
		}
		if len(ids) != 1 || ids[0] != "text:report@7" || chunk > 0 && len(hits) < 2 {
			t.Errorf("chunk tokens %d: text candidates %v from %d hits", chunk, ids, len(hits))
		}
	}
}

func TestChunkParent(t *testing.T) {
	tests := []struct{ in, want string }{
		{"text:doc-1@2", "text:doc-1"},
		{"text:doc-1@12", "text:doc-1"},
		{"text:doc-1", "text:doc-1"},
		{"table:t@x", "table:t@x"}, // non-numeric suffix untouched
	}
	for _, tc := range tests {
		if got := chunkParent(tc.in); got != tc.want {
			t.Errorf("chunkParent(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPipelineVerifyFigure4(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	rep, err := p.Verify(golfClaimObject(), datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.Refuted {
		t.Fatalf("final verdict = %v", rep.Verdict)
	}
	if rep.Confidence <= 0 {
		t.Errorf("confidence = %v", rep.Confidence)
	}
	// E1 refutes, E2 not related.
	verdicts := map[string]verify.Verdict{}
	for _, ev := range rep.Evidence {
		verdicts[ev.Instance.ID] = ev.Result.Verdict
	}
	if verdicts["table:e1"] != verify.Refuted {
		t.Errorf("E1 verdict = %v", verdicts["table:e1"])
	}
	if v, ok := verdicts["table:e2"]; ok && v != verify.NotRelated {
		t.Errorf("E2 verdict = %v", v)
	}
	// Provenance recorded the run.
	if rep.ProvenanceSeq < 0 {
		t.Fatal("no provenance seq")
	}
	rec, ok := p.Provenance().Get(rep.ProvenanceSeq)
	if !ok || rec.FinalVerdict != "Refuted" || len(rec.Decisions) == 0 {
		t.Errorf("provenance record = %+v", rec)
	}
	if rec.Resolution != "trust-weighted majority" {
		t.Errorf("resolution = %q", rec.Resolution)
	}
}

func TestPipelineVerifyTupleObject(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	e1, _ := lake.Table("e1")
	tp, _ := e1.TupleAt(1)

	// Correct value: Verified via counterpart tuple + entity page.
	g := verify.NewTupleObject("g-ok", tp, "money")
	rep, err := p.Verify(g, datalake.KindTuple, datalake.KindText)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.Verified {
		t.Errorf("correct tuple verdict = %v", rep.Verdict)
	}

	// Wrong value: Refuted.
	bad := tp.WithValue("money", "999")
	g2 := verify.NewTupleObject("g-bad", bad, "money")
	rep2, err := p.Verify(g2, datalake.KindTuple, datalake.KindText)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verdict != verify.Refuted {
		t.Errorf("wrong tuple verdict = %v", rep2.Verdict)
	}
}

func TestPipelineVerifyEntityEvidence(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	e1, _ := lake.Table("e1")
	tp, _ := e1.TupleAt(1)
	g := verify.NewTupleObject("g-kg", tp, "money")
	rep, err := p.Verify(g, datalake.KindEntity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.Verified {
		t.Errorf("KG evidence verdict = %v", rep.Verdict)
	}
}

func TestPipelineNoRerankerStillWorks(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, false)
	rep, err := p.Verify(golfClaimObject(), datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.Refuted {
		t.Errorf("no-reranker verdict = %v", rep.Verdict)
	}
}

func TestPipelineNoEvidenceIsNotRelated(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	c := claims.Claim{
		Context:   "a relation that does not exist anywhere",
		Entities:  []string{"nobody at all"},
		Attribute: "height",
		Op:        claims.OpLookup,
		Value:     "12",
	}
	c.Render()
	rep, err := p.Verify(verify.NewClaimObject("g-none", c), datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.NotRelated {
		t.Errorf("no-evidence verdict = %v", rep.Verdict)
	}
	if rep.Confidence != 0 {
		t.Errorf("no-evidence confidence = %v", rep.Confidence)
	}
}

func TestPipelineSourceTrust(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	if got := p.SourceTrust("s1"); got != 0.8 {
		t.Errorf("lake prior trust = %v", got)
	}
	if got := p.SourceTrust("unknown"); got != 0.5 {
		t.Errorf("default trust = %v", got)
	}
	p.SetSourceTrust("s1", 0.3)
	if got := p.SourceTrust("s1"); got != 0.3 {
		t.Errorf("override trust = %v", got)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	lake := smallLake(t)
	ix, _ := BuildIndexer(lake, DefaultIndexerConfig(1))
	reg := rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 64))
	agent := verify.NewAgent(verify.NewExactVerifier())
	if _, err := NewPipeline(nil, ix, reg, agent, nil, nil, DefaultPipelineConfig()); err == nil {
		t.Error("nil lake accepted")
	}
	bad := DefaultPipelineConfig()
	bad.TopK = 0
	if _, err := NewPipeline(lake, ix, reg, agent, nil, nil, bad); err == nil {
		t.Error("TopK=0 accepted")
	}
}

func TestPipelineNilProvenance(t *testing.T) {
	lake := smallLake(t)
	ix, _ := BuildIndexer(lake, DefaultIndexerConfig(1))
	reg := rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 64))
	agent := verify.NewAgent(verify.NewExactVerifier())
	p, err := NewPipeline(lake, ix, reg, agent, nil, nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Verify(golfClaimObject(), datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProvenanceSeq != -1 {
		t.Errorf("provenance seq with nil store = %d", rep.ProvenanceSeq)
	}
}

func TestCombineRRF(t *testing.T) {
	hits := []provenance.RetrievalHit{
		{Index: "bm25", InstanceID: "a", Rank: 0},
		{Index: "bm25", InstanceID: "b", Rank: 1},
		{Index: "vector", InstanceID: "b", Rank: 0},
		{Index: "vector", InstanceID: "c", Rank: 1},
	}
	got := combine(hits)
	// b appears in both lists (1/61 + 1/60) and must beat a (1/60) and c (1/61).
	if len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Errorf("combine = %v", got)
	}
	if combine(nil) != nil {
		t.Error("combine(nil) != nil")
	}
}

// TestPipelineSurfacesLakeDrift: if an instance the index returns can no
// longer be resolved against the lake (index/lake drift), Verify fails
// loudly instead of silently skipping evidence.
func TestPipelineSurfacesLakeDrift(t *testing.T) {
	lake := smallLake(t)
	indexer, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Build a second, smaller lake missing table e1 but reuse the big
	// lake's indexer: hits for e1 will not resolve.
	drifted := datalake.New()
	drifted.AddSource(datalake.Source{ID: "s1", Name: "tables"})
	e2, _ := lake.Table("e2")
	if err := drifted.AddTable(e2); err != nil {
		t.Fatal(err)
	}
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 64))
	agent := verify.NewAgent(verify.NewExactVerifier())
	p, err := NewPipeline(drifted, indexer, registry, agent, nil, nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(golfClaimObject(), datalake.KindTable); err == nil {
		t.Error("lake drift went unnoticed")
	}
}
