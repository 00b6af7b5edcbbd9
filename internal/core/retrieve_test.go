package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/datalake"
	"repro/internal/par"
	"repro/internal/provenance"
	"repro/internal/verify"
	"repro/internal/workload"
)

// retrieveReference is retrieval as it ran when each (kind, family) search
// was a task of its own: the searches on par.For, each group ranked as its
// index emits it, the groups concatenated in kind order, BM25 before
// vector.
func retrieveReference(ix *Indexer, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit {
	if len(kinds) == 0 {
		kinds = allKinds
	}
	qterms := ix.emb.Dict().AppendTerms(nil, query)
	qvec := ix.emb.EmbedText(query)
	groups := make([][]provenance.RetrievalHit, 2*len(kinds))
	par.For(len(groups), runtime.GOMAXPROCS(0), func(i int) {
		kind := kinds[i/2]
		if i%2 == 0 {
			if idx := ix.bm25[kind]; idx != nil {
				for rank, h := range idx.SearchTerms(qterms, k) {
					groups[i] = append(groups[i], provenance.RetrievalHit{Index: familyBM25, InstanceID: h.ID, Score: h.Score, Rank: rank})
				}
			}
			return
		}
		if idx := ix.vec[kind]; idx != nil {
			for rank, h := range idx.Search(qvec, k) {
				groups[i] = append(groups[i], provenance.RetrievalHit{Index: familyVector, InstanceID: h.ID, Score: h.Score, Rank: rank})
			}
		}
	})
	return slices.Concat(groups...)
}

// TestRetrieveMatchesFanOutReference: retrieval that searches the kinds in
// turn returns, for the claim and tuple tasks of a generated lake, the
// hits the per-(kind, family) fan-out returned, field for field and
// scores bit for bit, over every kind, each kind alone and kinds in an
// order of the caller's; a context cancelled before the call returns none.
func TestRetrieveMatchesFanOutReference(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 80, 30
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	ix, err := BuildIndexer(corpus.Lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var queries []string
	claimTasks, err := corpus.ClaimTasks(12)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range claimTasks {
		queries = append(queries, verify.NewClaimObject(fmt.Sprint(i), ct.Claim).Query())
	}
	tupleTasks, err := corpus.TupleTasks(8)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range tupleTasks {
		queries = append(queries, verify.NewTupleObject(fmt.Sprint(i), tt.MaskedTuple(), tt.MaskedAttr()).Query())
	}
	kindSets := [][]datalake.Kind{nil, {datalake.KindText, datalake.KindTable}}
	for _, kind := range allKinds {
		kindSets = append(kindSets, []datalake.Kind{kind})
	}

	for qi, q := range queries {
		for _, kinds := range kindSets {
			want := retrieveReference(ix, q, 50, kinds)
			got, ids := ix.RetrieveCtx(context.Background(), q, 50, kinds...)
			where := fmt.Sprintf("query %d, kinds %v", qi, kinds)
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s: %d hits, reference %d", where, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Index != w.Index || g.InstanceID != w.InstanceID || g.Rank != w.Rank || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s: hit %d = %+v, reference %+v", where, i, g, w)
				}
			}
			if !slices.Equal(ids, provenance.Combine(want)) {
				t.Fatalf("%s: combined candidates differ from the reference's", where)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if hits, ids := ix.RetrieveCtx(ctx, queries[0], 50); len(hits) != 0 || len(ids) != 0 {
		t.Fatalf("cancelled retrieval returned %d hits, %d candidates", len(hits), len(ids))
	}
}
