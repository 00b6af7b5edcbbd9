package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datalake"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
)

// entityTriples is a knowledge graph whose entities have several triples
// each, interleaved, with subjects that differ only in case.
func entityTriples() []kg.Triple {
	players := []string{"gary player", "lee trevino", "arnold palmer", "jack nicklaus", "tom watson"}
	var ts []kg.Triple
	for round := 0; round < 6; round++ {
		for i, p := range players {
			subject := p
			if round%2 == 1 {
				subject = fmt.Sprintf("%s%s", string(p[0]-'a'+'A'), p[1:]) // "Gary player"
			}
			ts = append(ts, kg.Triple{
				Subject:   subject,
				Predicate: fmt.Sprintf("money of %d masters tournament", 1960+round),
				Object:    fmt.Sprintf("%d", 1000*(round+1)+i),
				SourceID:  "kg",
			})
		}
	}
	return ts
}

// TestEntityIndexingEquivalence: the same triples ingested (a) in one
// batch, (b) one at a time and (c) before a bulk BuildIndexer must leave
// the entity indexes answering identically — hits, scores and whole
// Reports — and only (b), where each triple really does change its
// entity's page, may leave tombstones behind. At the parent commit (a)
// re-indexed every entity once per triple. The subtest keeps the name it
// had when the shard count was a parameter; one index per kind is the
// layout that remains.
func TestEntityIndexingEquivalence(t *testing.T) {
	t.Run("shards=1", testEntityIndexingEquivalence)
}

func testEntityIndexingEquivalence(t *testing.T) {
	triples := entityTriples()
	cfg := DefaultIndexerConfig(1)
	build := func(pre []kg.Triple) (*datalake.Lake, *Pipeline) {
		lake := datalake.New()
		t.Cleanup(func() { lake.Close() })
		if err := lake.AddSource(datalake.Source{ID: "kg", Name: "graph", TrustPrior: 0.9}); err != nil {
			t.Fatal(err)
		}
		for _, tr := range pre {
			if err := lake.AddTriple(tr); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := BuildIndexer(lake, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ix.Close)
		registry := rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 128))
		p, err := NewPipeline(lake, ix, registry, verify.NewAgent(verify.NewExactVerifier()), provenance.NewStore(), nil, DefaultPipelineConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return lake, p
	}

	batchLake, batch := build(nil)
	items := make([]datalake.BatchItem, len(triples))
	for i := range triples {
		items[i] = datalake.BatchItem{Triple: &triples[i]}
	}
	results, err := batchLake.AddBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || res.Version != uint64(i+1) {
			t.Fatalf("batch item %d: version %d, err %v", i, res.Version, res.Err)
		}
	}
	if v := batchLake.Version(); v != uint64(len(triples)) {
		t.Fatalf("batch published version %d, want %d: every event must advance the watermark", v, len(triples))
	}

	oneLake, oneByOne := build(nil)
	for _, tr := range triples {
		if err := oneLake.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	_, bulk := build(triples)

	if n := batch.Indexer().bm25[datalake.KindEntity].Tombstones(); n != 0 {
		t.Errorf("batch ingest left %d tombstoned entity pages; each entity should be indexed once", n)
	}
	if n := bulk.Indexer().bm25[datalake.KindEntity].Tombstones(); n != 0 {
		t.Errorf("bulk build left %d tombstoned entity pages", n)
	}
	for _, p := range []*Pipeline{batch, oneByOne, bulk} {
		if live := p.Indexer().bm25[datalake.KindEntity].Len(); live != 5 {
			t.Fatalf("%d live entity pages, want 5 (case variants must share one)", live)
		}
	}

	queries := []string{
		"gary player money 1963 masters tournament",
		"lee trevino 4001",
		"masters tournament money",
		"Tom Watson 1965",
	}
	for _, q := range queries {
		want, wantIDs := bulk.Indexer().Retrieve(q, 10, datalake.KindEntity)
		if len(want) == 0 {
			t.Fatalf("query %q retrieved nothing", q)
		}
		for name, p := range map[string]*Pipeline{"batch": batch, "one at a time": oneByOne} {
			got, gotIDs := p.Indexer().Retrieve(q, 10, datalake.KindEntity)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Errorf("query %q, %s:\n got  %v\n want %v", q, name, got, want)
			}
		}
	}

	tp := table.New("g", "1963 masters tournament", []string{"player", "money"})
	tp.MustAppendRow("gary player", "4000")
	tuple, _ := tp.TupleAt(0)
	for _, tc := range []struct {
		g       verify.Generated
		verdict verify.Verdict
	}{
		{verify.NewTupleObject("right", tuple, "money"), verify.Verified},
		{verify.NewTupleObject("wrong", tuple.WithValue("money", "1"), "money"), verify.Refuted},
	} {
		g, verdict := tc.g, tc.verdict
		want, err := bulk.Verify(g, datalake.KindEntity)
		if err != nil {
			t.Fatal(err)
		}
		if want.Verdict != verdict {
			t.Fatalf("%s: verdict %v from entity evidence, want %v", g.ID, want.Verdict, verdict)
		}
		for name, p := range map[string]*Pipeline{"batch": batch, "one at a time": oneByOne} {
			got, err := p.Verify(g, datalake.KindEntity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: report differs from the bulk build's:\n got  %+v\n want %+v", g.ID, name, got, want)
			}
		}
	}
}
