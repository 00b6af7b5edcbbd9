package rerank_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestScoresIndependentOfDictionary: for every (query, candidate) pair
// retrieval hands the rerankers on the claim and tuple tasks of a small
// generated lake, each scorer that analyzes text — OpenTFV on tables and
// tuples (its bag-of-words fallback too), TupleTextScorer and ColBERT on
// texts — scores exactly as it does over an empty dictionary, the
// reference chain, when it analyzes through the indexer's warm one; and
// scoring leaves that dictionary and its token table as they were.
func TestScoresIndependentOfDictionary(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 200, 100
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	icfg := core.DefaultIndexerConfig(1)
	ix, err := core.BuildIndexer(corpus.Lake, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	warm := ix.Embedder()
	cold := embed.NewEmbedder(warm.Dim(), icfg.Seed)
	terms, tableBytes := warm.Dict().Len(), warm.TableBytes()

	type scorerPair struct {
		name       string
		warm, cold rerank.Scorer
		kind       datalake.Kind
		claim      bool // scores claim queries, else tuple queries
	}
	pairs := []scorerPair{
		{"opentfv/table", rerank.NewOpenTFV(warm.Dict()), rerank.NewOpenTFV(cold.Dict()), datalake.KindTable, true},
		{"opentfv/tuple", rerank.NewOpenTFV(warm.Dict()), rerank.NewOpenTFV(cold.Dict()), datalake.KindTuple, true},
		{"tuple-text", rerank.NewTupleTextScorer(warm.Dict()), rerank.NewTupleTextScorer(cold.Dict()), datalake.KindText, false},
		{"colbert", rerank.NewColBERT(warm, 256), rerank.NewColBERT(cold, 256), datalake.KindText, true},
	}

	var queries []rerank.Query
	claimTasks, err := corpus.ClaimTasks(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range claimTasks {
		c := ct.Claim
		queries = append(queries, rerank.Query{Text: c.Text, Claim: &c}, rerank.Query{Text: c.Text})
	}
	tupleTasks, err := corpus.TupleTasks(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tupleTasks {
		tp := tt.Tuple.WithValue(tt.MaskedAttr(), table.Missing)
		queries = append(queries, rerank.Query{Text: tp.SerializeForIndex(), Tuple: &tp})
	}

	scored := 0
	for _, q := range queries {
		_, ids := ix.Retrieve(q.Text, 20)
		for _, id := range ids {
			inst, err := corpus.Lake.Resolve(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if inst.Kind != p.kind || (q.Tuple == nil) != p.claim {
					continue
				}
				if w, c := p.warm.Score(q, inst), p.cold.Score(q, inst); w != c {
					t.Fatalf("%s: %q against %s scored %v over the warm dictionary, %v over an empty one", p.name, q.Text, id, w, c)
				}
				scored++
			}
		}
	}
	if scored < 1000 {
		t.Fatalf("only %d pairs scored", scored)
	}
	if warm.Dict().Len() != terms || warm.TableBytes() != tableBytes {
		t.Errorf("scoring grew the dictionary from %d to %d terms, the token table from %d to %d bytes",
			terms, warm.Dict().Len(), tableBytes, warm.TableBytes())
	}
	if cold.Dict().Len() != 0 || cold.TableBytes() != 0 {
		t.Errorf("scoring added %d terms, %d table bytes to an empty dictionary", cold.Dict().Len(), cold.TableBytes())
	}
}
