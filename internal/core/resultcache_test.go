package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
	"repro/internal/workload"
)

// tokenVerifier is a deterministic stub: evidence containing the token is
// Verified, everything else NotRelated. It makes verdict flips observable
// the instant a token-bearing instance becomes retrievable — exactly the
// signal a stale cache entry would suppress.
type tokenVerifier struct{ token string }

func (v *tokenVerifier) Name() string                                  { return "token-stub" }
func (v *tokenVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (v *tokenVerifier) Verify(g verify.Generated, ev datalake.Instance) (verify.Result, error) {
	verdict := verify.NotRelated
	if strings.Contains(ev.Serialize(), v.token) {
		verdict = verify.Verified
	}
	return verify.Result{Verdict: verdict, Verifier: v.Name(), EvidenceID: ev.ID}, nil
}

// tokenPipeline builds a cached pipeline over a fresh lake whose verifier
// flips on the token.
func tokenPipeline(t *testing.T, token string) (*Pipeline, *datalake.Lake) {
	t.Helper()
	lake := datalake.New()
	if err := lake.AddSource(datalake.Source{ID: "s", Name: "src", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	indexer, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 128))
	agent := verify.NewAgent(&tokenVerifier{token: token})
	p, err := NewPipeline(lake, indexer, registry, agent, provenance.NewStore(), nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		indexer.Close()
		lake.Close()
	})
	return p, lake
}

// claimAbout wraps a raw query text as a claim object (bypassing the
// template parser: retrieval and the stub verifier only see the text).
func claimAbout(id, text string) verify.Generated {
	return verify.NewClaimObject(id, claims.Claim{Text: text})
}

// TestResultCacheHitAndExactInvalidation exercises the cache's core
// contract: repeats hit, writes to untouched kinds leave entries hot, and
// writes touching a depended-on kind invalidate exactly.
func TestResultCacheHitAndExactInvalidation(t *testing.T) {
	p := buildPipeline(t, smallLake(t))
	defer p.Close()
	g := golfClaimObject()

	r1, err := p.Verify(g, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ResultCacheHits != 0 || st.ResultCacheMisses != 1 {
		t.Fatalf("after cold verify: %+v", st)
	}

	r2, err := p.Verify(g, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheHits != 1 {
		t.Fatalf("repeat did not hit: %+v", st)
	}
	if r2.Verdict != r1.Verdict || r2.ProvenanceSeq != r1.ProvenanceSeq {
		t.Fatalf("cached report diverged: %+v vs %+v", r2, r1)
	}

	// A document ingest touches only texts: the table-kind entry stays hot.
	if err := p.Lake().AddDocument(&doc.Document{ID: "other", Text: "unrelated prose", SourceID: "s2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(g, datalake.KindTable); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheHits != 2 || st.ResultCacheInvalidations != 0 {
		t.Fatalf("text ingest disturbed a table-only entry: %+v", st)
	}
	// But it does invalidate an entry that spanned texts.
	if _, err := p.Verify(g, datalake.KindTable, datalake.KindText); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lake().AddDocumentVersioned(&doc.Document{ID: "other2", Text: "more prose", SourceID: "s2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(g, datalake.KindTable, datalake.KindText); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheInvalidations != 1 {
		t.Fatalf("text ingest did not invalidate the text-spanning entry: %+v", st)
	}

	// A table ingest kills the table-kind entry.
	extra := table.New("cache-extra", "irrelevant table", []string{"a"})
	extra.SourceID = "s1"
	extra.MustAppendRow("x")
	if err := p.Lake().AddTable(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(g, datalake.KindTable); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheInvalidations != 2 {
		t.Fatalf("table ingest did not invalidate: %+v", st)
	}

	// A trust override invalidates everything.
	if _, err := p.Verify(g, datalake.KindTable); err != nil { // re-warm
		t.Fatal(err)
	}
	p.SetSourceTrust("s1", 0.3)
	if _, err := p.Verify(g, datalake.KindTable); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheInvalidations != 3 {
		t.Fatalf("trust override did not invalidate: %+v", st)
	}

	// Re-registering a source (AddSource overwrite) changes the TrustPrior
	// fallback that verdict resolution reads, so it must invalidate too.
	if _, err := p.Verify(g, datalake.KindTable); err != nil { // re-warm
		t.Fatal(err)
	}
	if err := p.Lake().AddSource(datalake.Source{ID: "s1", Name: "tables", TrustPrior: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(g, datalake.KindTable); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.ResultCacheInvalidations != 4 {
		t.Fatalf("source overwrite did not invalidate: %+v", st)
	}

	// A hit is private: editing the Report it returned changes no later hit.
	hitsBefore := p.Stats().ResultCacheHits
	hit, err := p.Verify(g, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Evidence) == 0 {
		t.Fatal("no evidence to edit")
	}
	want := hit.Evidence[0]
	hit.Evidence[0].Result.Explanation = "edited by the caller"
	hit.Evidence[0].RerankScore = -1
	again, err := p.Verify(g, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ResultCacheHits != hitsBefore+2 {
		t.Fatalf("the last two verifies did not both hit: %+v", st)
	}
	if !reflect.DeepEqual(again.Evidence[0], want) {
		t.Fatalf("a caller's edit reached the cache:\n got %+v\nwant %+v", again.Evidence[0], want)
	}
}

// TestCachedReportsMatchRecomputed: over a generated lake, for claims and
// imputed tuples, head and pinned reads, every cache hit equals the Report
// a pipeline without a result cache computes over the same lake for the
// same object — down to the caller's own object, which matters when two
// requests share a key: the fingerprint leaves out a tuple's TableID and
// SourceID, which no verifier reads. Lineage sequence numbers differ
// between the two pipelines, so the recomputed Report takes the hit's
// before the comparison, and the hit's must be its miss's.
func TestCachedReportsMatchRecomputed(t *testing.T) {
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
	registry := rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 128))
	agent := verify.NewAgent(verify.NewLLMVerifier(verify.DefaultLLMConfig(1)), verify.WithLocalVerifier(verify.NewTupleVerifier()))

	claimTasks, err := corpus.ClaimTasks(12)
	if err != nil {
		t.Fatal(err)
	}
	tupleTasks, err := corpus.TupleTasks(8)
	if err != nil {
		t.Fatal(err)
	}
	var objects []verify.Generated
	for i, ct := range claimTasks {
		objects = append(objects, verify.NewClaimObject(fmt.Sprintf("claim-%d", i), ct.Claim))
	}
	for i, tt := range tupleTasks {
		objects = append(objects, verify.NewTupleObject(fmt.Sprintf("tuple-%d", i), tt.Tuple.WithValue(tt.MaskedAttr(), table.Missing), tt.MaskedAttr()))
	}
	// Two requests one entry serves.
	shared := tupleTasks[0].Tuple.WithValue(tupleTasks[0].MaskedAttr(), table.Missing)
	shared.TableID, shared.SourceID = "generated-a", "model-a"
	other := shared
	other.TableID, other.SourceID = "generated-b", "model-b"
	sharedA := verify.NewTupleObject("shared", shared, tupleTasks[0].MaskedAttr())
	sharedB := verify.NewTupleObject("shared", other, tupleTasks[0].MaskedAttr())
	if cacheKey(sharedA, allKinds) != cacheKey(sharedB, allKinds) {
		t.Fatal("the two tuples do not share a key")
	}

	// Every pipeline reranks; the subtest keeps the name it has had since
	// the reranker could be switched off.
	t.Run("reranker=true", func(t *testing.T) {
		pcfg := DefaultPipelineConfig()
		cached, err := NewPipeline(corpus.Lake, ix, registry, agent, provenance.NewStore(), nil, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()
		pcfg.ResultCache = 0
		fresh, err := NewPipeline(corpus.Lake, ix, registry, agent, provenance.NewStore(), nil, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		pin, err := cached.PinSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if freshPin, err := fresh.PinSnapshot(nil); err != nil || freshPin.Version() != pin.Version() {
			t.Fatalf("pins at %d and %d (%v)", pin.Version(), freshPin.Version(), err)
		}
		hits := 0
		check := func(fill, g verify.Generated, asOf uint64) {
			t.Helper()
			miss, err := cached.VerifyAsOfCtx(context.Background(), fill, asOf)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := cached.VerifyAsOfCtx(context.Background(), g, asOf)
			if err != nil {
				t.Fatal(err)
			}
			if hits++; cached.Stats().ResultCacheHits != uint64(hits) {
				t.Fatalf("%s at %d: no hit: %+v", g.ID, asOf, cached.Stats())
			}
			want, err := fresh.VerifyAsOfCtx(context.Background(), g, asOf)
			if err != nil {
				t.Fatal(err)
			}
			if hit.ProvenanceSeq != miss.ProvenanceSeq {
				t.Fatalf("%s at %d: hit names lineage record %d, its miss %d", g.ID, asOf, hit.ProvenanceSeq, miss.ProvenanceSeq)
			}
			want.ProvenanceSeq = hit.ProvenanceSeq
			if !reflect.DeepEqual(hit, want) {
				t.Fatalf("%s at %d: cached Report differs from the recomputed one:\n got %+v\nwant %+v", g.ID, asOf, hit, want)
			}
		}
		for _, asOf := range []uint64{0, pin.Version()} {
			for _, g := range objects {
				check(g, g, asOf)
			}
			check(sharedA, sharedB, asOf)
		}
	})
}

// TestCacheKeyStructuredFields guards the fingerprint against aliasing:
// objects differing only in structured fields (a claim's Value/Op with
// identical Text, a tuple's cell values) must not share a key, and the
// same request must produce a stable key.
func TestCacheKeyStructuredFields(t *testing.T) {
	kinds := []datalake.Kind{datalake.KindTable}
	base := claims.Claim{Text: "same text", Context: "ctx", Entities: []string{"e"}, Attribute: "a", Value: "57"}
	k1 := cacheKey(verify.NewClaimObject("id", base), kinds)
	if k2 := cacheKey(verify.NewClaimObject("id", base), kinds); k2 != k1 {
		t.Fatal("identical requests produced different keys")
	}
	altered := []claims.Claim{base, base, base, base}
	altered[0].Value = "58"
	altered[1].Op = claims.OpSum
	altered[2].Attribute = "b"
	altered[3].Entities = []string{"e", "f"}
	for i, c := range altered {
		if cacheKey(verify.NewClaimObject("id", c), kinds) == k1 {
			t.Errorf("claim variant %d aliased the base key", i)
		}
	}

	tp := table.Tuple{Caption: "cap", Columns: []string{"x", "y"}, Values: []string{"1", "2"}}
	tk1 := cacheKey(verify.NewTupleObject("id", tp, "x"), kinds)
	tp2 := tp
	tp2.Values = []string{"1", "3"}
	if tk2 := cacheKey(verify.NewTupleObject("id", tp2, "x"), kinds); tk2 == tk1 {
		t.Error("tuple with different cell value aliased the key")
	}
	if tk3 := cacheKey(verify.NewTupleObject("id", tp, "y"), kinds); tk3 == tk1 {
		t.Error("tuple with different attr aliased the key")
	}
	if tk4 := cacheKey(verify.NewTupleObject("id", tp, "x"), []datalake.Kind{datalake.KindTuple}); tk4 == tk1 {
		t.Error("different kind set aliased the key")
	}
}

// TestCacheInvalidationOrdering is the coherence table: for every modality,
// a verify issued after an acknowledged ingest must see the new instance —
// never a stale cached verdict from before the write. The stub verifier
// flips NotRelated→Verified the moment the token-bearing instance is
// retrievable, so serving a stale entry fails loudly.
func TestCacheInvalidationOrdering(t *testing.T) {
	cases := []struct {
		name   string
		kinds  []datalake.Kind
		ingest func(t *testing.T, lake *datalake.Lake, token string)
	}{
		{
			name:  "table",
			kinds: []datalake.Kind{datalake.KindTable},
			ingest: func(t *testing.T, lake *datalake.Lake, token string) {
				tbl := table.New("flip-table", "table about "+token, []string{"k", "v"})
				tbl.SourceID = "s"
				tbl.MustAppendRow("fact", token)
				if err := lake.AddTable(tbl); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:  "tuple",
			kinds: []datalake.Kind{datalake.KindTuple},
			ingest: func(t *testing.T, lake *datalake.Lake, token string) {
				tbl := table.New("flip-tuple", "rows about "+token, []string{"k", "v"})
				tbl.SourceID = "s"
				tbl.MustAppendRow("fact", token)
				if err := lake.AddTable(tbl); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:  "text",
			kinds: []datalake.Kind{datalake.KindText},
			ingest: func(t *testing.T, lake *datalake.Lake, token string) {
				d := &doc.Document{ID: "flip-doc", Title: "note", Text: "a document mentioning " + token, SourceID: "s"}
				if err := lake.AddDocument(d); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:  "entity",
			kinds: []datalake.Kind{datalake.KindEntity},
			ingest: func(t *testing.T, lake *datalake.Lake, token string) {
				if err := lake.AddTriple(kg.Triple{Subject: token, Predicate: "is", Object: "present", SourceID: "s"}); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			token := "zq" + tc.name + "flag"
			p, lake := tokenPipeline(t, token)
			g := claimAbout("coherence-"+tc.name, "claim mentioning "+token)

			// Before the ingest: nothing decisive, and warm the cache so a
			// stale entry exists to be (wrongly) served.
			for i := 0; i < 2; i++ {
				rep, err := p.Verify(g, tc.kinds...)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Verdict != verify.NotRelated {
					t.Fatalf("pre-ingest verdict = %v", rep.Verdict)
				}
			}
			if hits := p.Stats().ResultCacheHits; hits != 1 {
				t.Fatalf("cache not warmed: hits = %d", hits)
			}

			// Acknowledged ingest, then verify: the verdict must flip.
			tc.ingest(t, lake, token)
			rep, err := p.Verify(g, tc.kinds...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != verify.Verified {
				t.Fatalf("post-ingest verdict = %v (stale cached verdict served)", rep.Verdict)
			}
			if inv := p.Stats().ResultCacheInvalidations; inv != 1 {
				t.Fatalf("invalidations = %d, want 1", inv)
			}
		})
	}
}

// TestResultCacheConcurrent hammers get/put/observe/epoch-bump from many
// goroutines (meaningful under -race) and then checks the counters add up.
func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(64)
	rebuild := func(e rcEntry) (Report, bool) { return Report{Confidence: e.confidence}, true }
	kindsets := [][]datalake.Kind{
		{datalake.KindTable},
		{datalake.KindText},
		{datalake.KindTable, datalake.KindText},
	}
	var wg sync.WaitGroup
	const workers, rounds = 8, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ks := kindsets[i%len(kindsets)]
				key := fmt.Sprintf("k%d", i%40)
				if _, ok := c.get(key, ks, rebuild); !ok {
					c.put(key, ks, uint64(i), c.epoch.Load(), Report{})
				}
				// Hammer one hot key unconditionally so concurrent
				// refresh-in-place puts race against hits.
				c.put("hot", ks, uint64(i), c.epoch.Load(), Report{Confidence: float64(i)})
				c.get("hot", ks, rebuild)
				switch i % 50 {
				case 17:
					c.observe(datalake.Event{Version: uint64(w*rounds + i), Kind: datalake.KindTable})
				case 33:
					c.bumpEpoch()
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, invalidations := c.hits.Load(), c.misses.Load(), c.invalidations.Load()
	size, bytes := c.size()
	if hits+misses != 2*workers*rounds {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d)", hits, misses, 2*workers*rounds)
	}
	if invalidations > misses {
		t.Fatalf("invalidations(%d) > misses(%d)", invalidations, misses)
	}
	if size > 64 {
		t.Fatalf("size %d exceeds capacity", size)
	}
	var want int64
	for _, sh := range c.shards {
		for key := range sh.items {
			want += rcEntryBytes + int64(len(key))
		}
	}
	if bytes != want {
		t.Fatalf("%d entries account for %d bytes, their keys for %d", size, bytes, want)
	}
}

// TestResultCacheConcurrentPipeline races live verifies against ingests on
// a real pipeline: every post-ack verify must reflect the ack'd write.
func TestResultCacheConcurrentPipeline(t *testing.T) {
	token := "zqliveflag"
	p, lake := tokenPipeline(t, token)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Background churn: unrelated reads on a second claim.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := claimAbout("noise", "claim about something else entirely")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.Verify(g, datalake.KindText); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Foreground: sequential ingest→verify rounds, each with a unique
	// token-bearing document; every post-ack verify must be Verified.
	for i := 0; i < 10; i++ {
		g := claimAbout(fmt.Sprintf("round-%d", i), fmt.Sprintf("claim %d mentioning %s", i, token))
		rep, err := p.Verify(g, datalake.KindText)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && rep.Verdict == verify.Verified {
			t.Fatal("verified before any token document existed")
		}
		d := &doc.Document{ID: fmt.Sprintf("live-%d", i), Text: fmt.Sprintf("doc %d mentioning %s", i, token), SourceID: "s"}
		if err := lake.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		rep, err = p.Verify(g, datalake.KindText)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != verify.Verified {
			t.Fatalf("round %d: post-ack verify = %v (stale)", i, rep.Verdict)
		}
	}
	close(stop)
	wg.Wait()
}
