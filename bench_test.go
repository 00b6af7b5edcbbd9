// Benchmarks regenerating every table and figure of the paper, plus
// component micro-benchmarks and the ablation benches DESIGN.md lists.
//
// Each experiment bench builds its environment once (the expensive part) and
// then measures the experiment itself; the reported metrics are printed via
// b.ReportMetric so `go test -bench` output doubles as the reproduction
// record (see EXPERIMENTS.md for paper-vs-measured).
package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/embed"
	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/textutil"
	"repro/internal/vecindex"
	"repro/internal/verify"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchEnv lazily builds a single experiment environment shared by all
// experiment benchmarks (the corpus and indexes are read-only).
var (
	benchOnce sync.Once
	benchVal  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		// Bench scale: large enough for the paper's shapes, small enough to
		// iterate. cmd/experiments -scale paper runs the full dimensions.
		cfg.Corpus.NumTables = 1500
		cfg.Corpus.NumTexts = 800
		cfg.NumClaimTasks = 150
		benchVal, benchErr = experiments.Build(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchVal
}

// --- Experiment benches: one per table/figure of the paper ---

// BenchmarkBaselineNoEvidence regenerates the Section 4 prose baseline:
// generator accuracy without evidence (paper: 0.52 tuples / 0.54 claims).
func BenchmarkBaselineNoEvidence(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.BaselineResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = env.Baseline()
	}
	b.ReportMetric(r.TupleAccuracy, "tuple-acc")
	b.ReportMetric(r.ClaimAccuracy, "claim-acc")
}

// BenchmarkTable1TupleTuple regenerates Table 1 row 1: (tuple, tuple)
// retrieval recall at top-3 (paper: 0.99).
func BenchmarkTable1TupleTuple(b *testing.B) {
	env := benchEnvironment(b)
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Table1()
		if err != nil {
			b.Fatal(err)
		}
		recall = r.TupleTupleRecall
	}
	b.ReportMetric(recall, "recall")
}

// BenchmarkTable1TupleText regenerates Table 1 row 2: (tuple, text)
// retrieval recall at top-3 (paper: 0.58).
func BenchmarkTable1TupleText(b *testing.B) {
	env := benchEnvironment(b)
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Table1()
		if err != nil {
			b.Fatal(err)
		}
		recall = r.TupleTextRecall
	}
	b.ReportMetric(recall, "recall")
}

// BenchmarkTable1ClaimTable regenerates Table 1 row 3: (claim, table)
// retrieval recall at top-5 (paper: 0.88).
func BenchmarkTable1ClaimTable(b *testing.B) {
	env := benchEnvironment(b)
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Table1()
		if err != nil {
			b.Fatal(err)
		}
		recall = r.ClaimTableRecall
	}
	b.ReportMetric(recall, "recall")
}

// BenchmarkTable2TupleVerifier regenerates Table 2 row 1: ChatGPT accuracy
// on (tuple, tuple+text) pairs (paper: 0.88).
func BenchmarkTable2TupleVerifier(b *testing.B) {
	env := benchEnvironment(b)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Table2()
		if err != nil {
			b.Fatal(err)
		}
		acc = r.TupleChatGPT
	}
	b.ReportMetric(acc, "chatgpt-acc")
}

// BenchmarkTable2RelevantTable regenerates Table 2 row 2: accuracy on
// (text, relevant table) pairs (paper: ChatGPT 0.75, PASTA 0.89).
func BenchmarkTable2RelevantTable(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.Table2Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = env.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RelevantTableChatGPT, "chatgpt-acc")
	b.ReportMetric(r.RelevantTablePasta, "pasta-acc")
}

// BenchmarkTable2RetrievedTable regenerates Table 2 row 3: accuracy on
// (text, retrieved table) pairs (paper: ChatGPT 0.91, PASTA 0.72).
func BenchmarkTable2RetrievedTable(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.Table2Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = env.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RetrievedTableChatGPT, "chatgpt-acc")
	b.ReportMetric(r.RetrievedTablePasta, "pasta-acc")
}

// BenchmarkFigure1Cases regenerates the Figure 1 case studies (tuple
// completion + text generation, verified/refuted with lake evidence).
func BenchmarkFigure1Cases(b *testing.B) {
	env := benchEnvironment(b)
	matches := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		matches = 0
		for _, c := range []experiments.CaseOutcome{r.TupleCorrect, r.TupleWrong, r.TextClaim} {
			if c.Match() {
				matches++
			}
		}
	}
	b.ReportMetric(matches, "cases-matched-of-3")
}

// BenchmarkFigure4CaseStudy regenerates Figure 4: the golf prize-total claim
// refuted by E1 via aggregation, E2 recognized as not related.
func BenchmarkFigure4CaseStudy(b *testing.B) {
	env := benchEnvironment(b)
	ok := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		ok = 0
		if r.Final.Match() && r.E1Retrieved && r.E1Verdict == verify.Refuted {
			ok = 1
		}
	}
	b.ReportMetric(ok, "reproduced")
}

// --- Ablation benches (design choices DESIGN.md calls out) ---

// BenchmarkAblationCombiner measures BM25-only vs vector-only vs combined
// retrieval recall (Section 3.1's two-index design).
func BenchmarkAblationCombiner(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.AblationsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.AblationsResult{
			CombinerClaimTable: map[string]float64{},
			CombinerTupleTuple: map[string]float64{},
		}
		if err := env.AblateCombiner(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CombinerClaimTable["bm25"], "bm25-recall")
	b.ReportMetric(r.CombinerClaimTable["vector"], "vector-recall")
	b.ReportMetric(r.CombinerClaimTable["combined"], "combined-recall")
}

// BenchmarkAblationReranker measures recall@k' with and without the
// task-aware reranker (Section 3.2).
func BenchmarkAblationReranker(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.AblationsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.AblationsResult{RerankerAt: map[int]experiments.RerankerPoint{}}
		if err := env.AblateReranker(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RerankerAt[1].With, "recall@1-with")
	b.ReportMetric(r.RerankerAt[1].Without, "recall@1-without")
}

// BenchmarkAblationTopK sweeps the task-agnostic retrieval depth.
func BenchmarkAblationTopK(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.AblationsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.AblationsResult{TopK: map[int]float64{}}
		if err := env.AblateTopK(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TopK[1], "recall@1")
	b.ReportMetric(r.TopK[100], "recall@100")
}

// BenchmarkAblationTrust measures final-verdict accuracy with uniform vs
// trust-weighted resolution under a corrupted source (challenge C3).
func BenchmarkAblationTrust(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.AblationsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.AblationsResult{}
		if err := env.AblateTrust(&r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TrustUniform, "uniform-acc")
	b.ReportMetric(r.TrustPriors, "priors-acc")
	b.ReportMetric(r.TrustEstimated, "learned-acc")
}

// --- Component micro-benchmarks ---

// BenchmarkIndexScale measures BM25 index build throughput vs lake size.
func BenchmarkIndexScale(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("tables=%d", n), func(b *testing.B) {
			cfg := workload.DefaultConfig()
			cfg.NumTables = n
			cfg.NumTexts = n / 2
			corpus, err := workload.GenerateLake(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.BuildIndexer(corpus.Lake, core.DefaultIndexerConfig(1))
				if err != nil {
					b.Fatal(err)
				}
				ix.Close()
			}
		})
	}
}

// BenchmarkBM25Search measures single-query latency on the content index.
func BenchmarkBM25Search(b *testing.B) {
	ix := invindex.New()
	cfg := workload.DefaultConfig()
	cfg.NumTables = 1000
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range corpus.Tables {
		if err := ix.Add(t.ID, t.SerializeForIndex()); err != nil {
			b.Fatal(err)
		}
	}
	query := corpus.Tables[42].SerializeForIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.Search(query, 10); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkBM25SearchTerms measures the pre-tokenized hot loop in
// isolation: allocs/op is the headline number (the steady path allocates
// only the returned hit slice; scratch comes from a pool).
func BenchmarkBM25SearchTerms(b *testing.B) {
	ix := invindex.New()
	cfg := workload.DefaultConfig()
	cfg.NumTables = 1000
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range corpus.Tables {
		if err := ix.Add(t.ID, t.SerializeForIndex()); err != nil {
			b.Fatal(err)
		}
	}
	terms := textutil.TokenizeFiltered(corpus.Tables[42].SerializeForIndex())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.SearchTerms(terms, 10); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkVectorSearch compares single-query latency of the int8 scan the
// server runs (sqflat: the heap tail; sealed: the same rows as one segment)
// and of the float32 reference (flat).
func BenchmarkVectorSearch(b *testing.B) {
	const dim, n = 128, 5000
	emb := embed.NewEmbedder(dim, 1)
	vecs := make([]embed.Vector, n)
	for i := range vecs {
		vecs[i] = emb.EmbedText(fmt.Sprintf("document %d about topic %d with words %d", i, i%37, i%113))
	}
	query := vecs[123]

	flat, sqflat, sealed := vecindex.NewFlat(dim), vecindex.NewSQFlat(dim), vecindex.NewSQFlat(dim)
	indexes := map[string]interface {
		Add(id string, v embed.Vector) error
		Search(q embed.Vector, k int) []vecindex.Hit
	}{"flat": flat, "sqflat": sqflat, "sealed": sealed}
	for _, ix := range indexes {
		for i, v := range vecs {
			if err := ix.Add(fmt.Sprintf("v%d", i), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	sealed.Freeze()
	for name, ix := range indexes {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Search(query, 10)
			}
		})
	}
}

// reportLatencyPercentiles reports p50/p99 over per-op durations.
func reportLatencyPercentiles(b *testing.B, durs []time.Duration) {
	if len(durs) == 0 {
		return
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(len(durs)-1))
		return float64(durs[i].Nanoseconds())
	}
	b.ReportMetric(pick(0.50), "p50-ns")
	b.ReportMetric(pick(0.99), "p99-ns")
}

// retrievalBenchLake builds the multi-kind retrieval corpus the retrieval
// benchmarks share.
func retrievalBenchLake(b *testing.B, tables, texts int) *workload.Corpus {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumTables = tables
	cfg.NumTexts = texts
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return corpus
}

// benchIngestSeq keeps live-ingested table IDs unique across benchmark
// re-runs (the lake persists while the harness retries larger b.N).
var benchIngestSeq atomic.Int64

// BenchmarkMixedIngestQuery measures retrieval latency while tables stream
// into the live lake — the online-ingestion-under-query-load scenario the
// frozen seed could not express.
func BenchmarkMixedIngestQuery(b *testing.B) {
	corpus := retrievalBenchLake(b, 400, 200)
	ix, err := core.BuildIndexer(corpus.Lake, core.DefaultIndexerConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = corpus.Tables[(i*17)%len(corpus.Tables)].SerializeForIndex()
	}

	stop := make(chan struct{})
	var ingested int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := benchIngestSeq.Add(1)
			t := table.New(fmt.Sprintf("bench-live-%d", seq), fmt.Sprintf("live benchmark table %d", seq), []string{"k", "v"})
			t.MustAppendRow(fmt.Sprintf("key%d", seq), fmt.Sprintf("value%d", seq))
			if err := corpus.Lake.AddTable(t); err != nil {
				b.Error(err)
				return
			}
			atomic.AddInt64(&ingested, 1)
		}
	}()

	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ix.Retrieve(queries[i%len(queries)], 100)
		durs = append(durs, time.Since(start))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	reportLatencyPercentiles(b, durs)
	b.ReportMetric(float64(atomic.LoadInt64(&ingested))/float64(b.N), "ingests/op")
}

// benchDoc synthesizes a distinct ~40-token document so embedding cost —
// the expensive stage the pipelined write path moves outside the lake's
// write lock — dominates realistic ingest work.
func benchDoc(seq int64) *doc.Document {
	return &doc.Document{
		ID:    fmt.Sprintf("ingest-bench-%d", seq),
		Title: fmt.Sprintf("ingest benchmark document %d", seq),
		Text: fmt.Sprintf("Document %d covers topic %d in the ingestion throughput "+
			"suite, describing player %d who recorded a money of %d at the %d open "+
			"championship while the committee reviewed attendance revenue weather "+
			"conditions course layout and historical records from season %d.",
			seq, seq%37, seq%113, 500+seq%250, 1900+seq%120, seq%53),
	}
}

// benchDocSeq keeps ingested document IDs unique across benchmark re-runs.
var benchDocSeq atomic.Int64

// BenchmarkIngestThroughput measures live document-ingest throughput
// (docs/sec) at 1, 4, and 16 concurrent writers, comparing the pipelined
// write path against the seed's serialized behavior (writers share one
// mutex spanning the whole ingest, emulating the old write lock that
// covered tokenize+embed+index). On multi-core hardware pipelined
// throughput scales with writers while serialized stays flat; on one core
// the two converge — the pipeline must not cost throughput.
func BenchmarkIngestThroughput(b *testing.B) {
	for _, mode := range []string{"serialized", "pipelined"} {
		for _, writers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/writers=%d", mode, writers), func(b *testing.B) {
				lake := datalake.New()
				icfg := core.DefaultIndexerConfig(1)
				icfg.QueryCacheSize = 0
				ix, err := core.BuildIndexer(lake, icfg)
				if err != nil {
					b.Fatal(err)
				}
				defer ix.Close()
				defer lake.Close()

				var serialMu sync.Mutex
				var remaining atomic.Int64
				remaining.Store(int64(b.N))
				var wg sync.WaitGroup
				b.ResetTimer()
				start := time.Now()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for remaining.Add(-1) >= 0 {
							d := benchDoc(benchDocSeq.Add(1))
							if mode == "serialized" {
								serialMu.Lock()
							}
							err := lake.AddDocument(d)
							if mode == "serialized" {
								serialMu.Unlock()
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if _, err := lake.Flush(); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if elapsed > 0 {
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/sec")
				}
			})
		}
	}
}

// BenchmarkObsOverhead measures what the observability layer costs on the
// ingest hot path: the same pipelined document ingest, bare vs with every
// lake and indexer metric armed (prepare/commit/apply histograms, queue
// gauge, per-family index-search timers). The two docs/sec figures are a
// record; TestObsAllocationOverhead bounds the difference deterministically,
// in allocations.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []string{"bare", "instrumented"} {
		b.Run(mode, func(b *testing.B) {
			lake := datalake.New()
			icfg := core.DefaultIndexerConfig(1)
			icfg.QueryCacheSize = 0
			ix, err := core.BuildIndexer(lake, icfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			defer lake.Close()
			if mode == "instrumented" {
				reg := obs.NewRegistry()
				lake.SetMetrics(reg)
				ix.SetMetrics(reg)
			}

			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := lake.AddDocument(benchDoc(benchDocSeq.Add(1))); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := lake.Flush(); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/sec")
			}
		})
	}
}

// BenchmarkBatchIngest measures AddBatch throughput (docs/sec) at batch
// sizes amortizing the commit stage: one write-lock acquisition commits the
// whole batch while embedding fans out across the prepare worker pool.
func BenchmarkBatchIngest(b *testing.B) {
	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			lake := datalake.New()
			icfg := core.DefaultIndexerConfig(1)
			icfg.QueryCacheSize = 0
			ix, err := core.BuildIndexer(lake, icfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			defer lake.Close()

			b.ResetTimer()
			start := time.Now()
			docs := 0
			for i := 0; i < b.N; i++ {
				items := make([]datalake.BatchItem, size)
				for j := range items {
					items[j] = datalake.BatchItem{Doc: benchDoc(benchDocSeq.Add(1))}
				}
				results, err := lake.AddBatch(items)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				docs += size
			}
			elapsed := time.Since(start)
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(docs)/elapsed.Seconds(), "docs/sec")
			}
		})
	}
}

// BenchmarkDurableIngest measures the write-ahead log's overhead: live
// document-ingest throughput (docs/sec) through an in-memory system versus
// a durable one at each sync policy. fsync=none and fsync=interval pay one
// buffered write per commit and should stay within 2x of in-memory;
// fsync=always pays a disk flush per commit and is the floor worth knowing
// before choosing it.
func BenchmarkDurableIngest(b *testing.B) {
	for _, mode := range []string{"inmemory", "fsync=none", "fsync=interval", "fsync=always"} {
		b.Run(mode, func(b *testing.B) {
			var sys *System
			var err error
			if mode == "inmemory" {
				lake := datalake.New()
				icfg := core.DefaultIndexerConfig(1)
				icfg.QueryCacheSize = 0
				opts := DefaultOptions(1)
				opts.Indexer = icfg
				sys, err = NewSystem(lake, opts)
			} else {
				opts := DefaultOpenOptions(1)
				opts.Indexer.QueryCacheSize = 0
				opts.Sync = strings.TrimPrefix(mode, "fsync=")
				sys, err = Open(b.TempDir(), opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()

			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				d := benchDoc(benchDocSeq.Add(1))
				if err := sys.AddDocument(&Document{ID: d.ID, Title: d.Title, Text: d.Text}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sys.Flush(); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/sec")
			}
			// Log growth per committed record (the delta behind
			// verifai_wal_appended_bytes_total): how much disk each document
			// costs under the configured payload encoding.
			if ds, ok := sys.Durability(); ok && ds.WALRecords > 0 {
				b.ReportMetric(float64(ds.WALBytes)/float64(ds.WALRecords), "wal-bytes/rec")
			}
		})
	}
}

// walEncodeRecords is the mutation stream BenchmarkWALEncode frames: the
// full contents of a small generated corpus — source registrations,
// tables, entity pages, and KG triples in the proportions GenerateLake
// actually commits them — stamped the way the ingest path stamps live
// appends. Both codecs encode the identical records.
func walEncodeRecords(tb testing.TB) []wal.Record {
	cfg := workload.DefaultConfig()
	cfg.NumTables = 60
	cfg.NumTexts = 30
	c, err := workload.GenerateLake(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []wal.Record
	add := func(rec wal.Record) {
		rec.Version, rec.TS = uint64(len(recs)+1), time.Now().UnixNano()
		recs = append(recs, rec)
	}
	for _, s := range c.Lake.Sources() {
		src := s
		add(wal.Record{Kind: wal.KindSource, Source: &src})
	}
	for _, tbl := range c.Tables {
		add(wal.Record{Kind: wal.KindTable, Table: tbl})
	}
	for _, id := range c.Lake.DocIDs() {
		d, _ := c.Lake.Document(id)
		add(wal.Record{Kind: wal.KindDocument, Doc: d})
	}
	for _, tr := range c.Lake.Triples() {
		trc := tr
		add(wal.Record{Kind: wal.KindTriple, Triple: &trc})
	}
	return recs
}

// BenchmarkWALEncode measures the record codec in isolation: whole-frame
// bytes per record and encode cost for each payload format over the same
// mutation mix. TestWALBinaryEncodingSize holds the size claim (binary
// at most 0.7x JSON) over the same records.
func BenchmarkWALEncode(b *testing.B) {
	recs := walEncodeRecords(b)
	for _, f := range []wal.Format{wal.FormatBinary, wal.FormatJSON} {
		b.Run(f.String(), func(b *testing.B) {
			var buf bytes.Buffer
			var frameBytes, frames int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := wal.EncodeFrameFormat(&buf, recs[i%len(recs)], f); err != nil {
					b.Fatal(err)
				}
				frameBytes += int64(buf.Len())
				frames++
			}
			b.StopTimer()
			b.ReportMetric(float64(frameBytes)/float64(frames), "bytes/rec")
		})
	}
}

// BenchmarkCheckpointStall measures what an ingest writer feels while a
// checkpoint is in flight. A durable system is seeded with a few thousand
// documents (so the checkpoint's write phase — catalog + index snapshot
// serialization and tree fsync — is long), a background goroutine runs
// checkpoints back to back, and per-ingest latency is sampled only while
// a checkpoint is actually running.
//
// The gated expectation of the two-phase protocol: ingest p99 during a
// checkpoint is bounded by the fork phase (the only quiesced window,
// reported as fork-ns) and does not grow with snapshot size — compare
// p99-ns against write-ns, the snapshot serialization time a single-phase
// checkpoint would have stalled writers for. The deterministic version of
// this gate is TestCheckpointDoesNotBlockIngest in internal/durable.
func BenchmarkCheckpointStall(b *testing.B) {
	opts := DefaultOpenOptions(1)
	opts.Indexer.QueryCacheSize = 0
	opts.Sync = "none" // isolate checkpoint-induced stall from per-commit fsync cost
	sys, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()

	// Seed enough state that one checkpoint write phase outlasts the whole
	// sampled ingest window.
	const seedDocs, seedBatch = 3000, 500
	for off := 0; off < seedDocs; off += seedBatch {
		items := make([]BatchItem, seedBatch)
		for j := range items {
			d := benchDoc(benchDocSeq.Add(1))
			items[j] = BatchItem{Doc: &Document{ID: d.ID, Title: d.Title, Text: d.Text}}
		}
		results, err := sys.AddBatch(items)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}

	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	var inFlight atomic.Bool
	var checkpoints int64
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			inFlight.Store(true)
			_, err := sys.Checkpoint()
			inFlight.Store(false)
			if err != nil {
				b.Error(err)
				return
			}
			checkpoints++
		}
	}()
	// Sample only while a checkpoint is genuinely in flight; bail (the
	// error is already recorded) if the checkpointer dies, rather than
	// spinning until the CI job timeout.
	waitInFlight := func() bool {
		for !inFlight.Load() {
			select {
			case <-ckptDone:
				return false
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
		return true
	}
	if !waitInFlight() {
		b.Fatal("checkpointer exited before the first checkpoint")
	}

	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Between checkpoints: wait off the clock, so ns/op measures the
		// ingest itself rather than idle spinning.
		b.StopTimer()
		if !waitInFlight() {
			break
		}
		d := benchDoc(benchDocSeq.Add(1))
		b.StartTimer()
		start := time.Now()
		if err := sys.AddDocument(&Document{ID: d.ID, Title: d.Title, Text: d.Text}); err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(start))
	}
	b.StopTimer()
	close(stop)
	<-ckptDone
	reportLatencyPercentiles(b, durs)
	ds, _ := sys.Durability()
	b.ReportMetric(float64(ds.LastForkNanos), "fork-ns")
	b.ReportMetric(float64(ds.LastWriteNanos), "write-ns")
	b.ReportMetric(float64(checkpoints), "checkpoints")
}

// caseSystem builds an in-memory system over the paper's case lake for the
// serving-path benchmarks. cache=false disables the verify-result cache.
func caseSystem(b *testing.B, cache bool) *System {
	b.Helper()
	lake := NewLake()
	lake.AddSource(Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9})
	for _, t := range []*Table{
		workload.OhioDistrictsTable(), workload.FilmographyTable(),
		workload.USOpen1954Table(), workload.USOpen1959Table(),
	} {
		if err := lake.AddTable(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := lake.AddDocument(workload.MeaganGoodDoc()); err != nil {
		b.Fatal(err)
	}
	opts := ExactOptions(1)
	if !cache {
		opts.Pipeline.ResultCache = 0
	}
	sys, err := NewSystem(lake, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkVerifyCachedVsCold measures the versioned result cache's win on
// repeated claims: "cold" recomputes the full retrieve→rerank→verify
// pipeline every time, "cached" serves the identical request from the
// sharded LRU (invalidated exactly on writes touching its evidence kinds).
// The expected gap is ≥10x — a hit is a fingerprint hash, one LRU lookup
// and a Report rebuilt from its lineage record versus the whole pipeline.
func BenchmarkVerifyCachedVsCold(b *testing.B) {
	for _, mode := range []string{"cold", "cached"} {
		b.Run(mode, func(b *testing.B) {
			sys := caseSystem(b, mode == "cached")
			defer sys.Close()
			c := workload.GolfClaim()
			if _, err := sys.VerifyClaim("bench-cache", c); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.VerifyClaim("bench-cache", c); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "cached" {
				st := sys.Stats()
				if st.ResultCacheHits == 0 {
					b.Fatal("cached mode never hit the result cache")
				}
				b.ReportMetric(float64(st.ResultCacheHits)/float64(st.ResultCacheHits+st.ResultCacheMisses), "hit-rate")
			}
		})
	}
}

// BenchmarkPinnedVsHeadVerify measures the cost of time-travel reads
// relative to head reads. "head" and "pinned" both run the full pipeline
// with the result cache off — pinned replays against the registry's frozen
// shards and pin-time trust, so any gap is pure snapshot overhead and
// should be ~1x. "pinned-cached" repeats one pinned request with the cache
// on: the pin is baked into the cache key, so hits are as cheap as head
// hits. Writes churn the head between setup and measurement so the pinned
// path demonstrably reads the old version.
func BenchmarkPinnedVsHeadVerify(b *testing.B) {
	run := func(b *testing.B, cached, pinned bool) {
		sys := caseSystem(b, cached)
		defer sys.Close()
		ctx := context.Background()
		c := workload.GolfClaim()
		var asOf uint64
		if pinned {
			v, err := sys.PinSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			asOf = v
			// Move the head past the pin so pinned reads cannot be
			// silently serving live state.
			for i := 0; i < 8; i++ {
				if err := sys.AddDocument(&doc.Document{
					ID: fmt.Sprintf("bench-churn-%d", i), Title: "churn", Text: "churn text",
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		verifyOnce := func(id string) Report {
			var (
				rep Report
				err error
			)
			if pinned {
				rep, err = sys.VerifyClaimAsOfCtx(ctx, id, c, asOf)
			} else {
				rep, err = sys.VerifyClaim(id, c)
			}
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}
		if rep := verifyOnce("bench-pin-warm"); pinned && rep.AsOfVersion != asOf {
			b.Fatalf("as_of_version = %d, want %d", rep.AsOfVersion, asOf)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("bench-pin-%d", i)
			if cached {
				id = "bench-pin-warm" // same request: exercise the pin-keyed hit path
			}
			verifyOnce(id)
		}
		b.StopTimer()
		if cached {
			if st := sys.Stats(); st.ResultCacheHits == 0 {
				b.Fatal("pinned-cached mode never hit the result cache")
			}
		}
	}
	b.Run("head", func(b *testing.B) { run(b, false, false) })
	b.Run("pinned", func(b *testing.B) { run(b, false, true) })
	b.Run("pinned-cached", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkServeConcurrentVerify measures the admission-controlled HTTP
// serving path under concurrent verify load: 8 clients hammer
// POST /v1/verify/claim over a small rotation of claims (the heavy-traffic
// shape where the result cache carries most requests), reporting requests
// per second and per-request p50/p99.
func BenchmarkServeConcurrentVerify(b *testing.B) {
	const clients = 8
	sys := caseSystem(b, true)
	defer sys.Close()
	// Admit every bench client: the default limiter (4×GOMAXPROCS) is
	// sized for real cores, and this measures throughput, not rejection.
	ts := httptest.NewServer(server.New(sys.Pipeline(), server.WithVerifyConcurrency(2*clients)))
	defer ts.Close()

	golf := workload.GolfClaim().Text
	bodies := make([][]byte, 4)
	for i := range bodies {
		data, err := json.Marshal(map[string]any{"id": fmt.Sprintf("serve-%d", i), "text": golf})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = data
	}

	var (
		remaining atomic.Int64
		durMu     sync.Mutex
		durs      []time.Duration
		wg        sync.WaitGroup
	)
	remaining.Store(int64(b.N))
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			for i := remaining.Add(-1); i >= 0; i = remaining.Add(-1) {
				t0 := time.Now()
				resp, err := http.Post(ts.URL+"/v1/verify/claim", "application/json",
					bytes.NewReader(bodies[int(i)%len(bodies)]))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
				local = append(local, time.Since(t0))
			}
			durMu.Lock()
			durs = append(durs, local...)
			durMu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "reqs/sec")
	}
	reportLatencyPercentiles(b, durs)
}

// BenchmarkEmbedText measures embedding throughput.
func BenchmarkEmbedText(b *testing.B) {
	emb := embed.NewEmbedder(128, 1)
	text := "In the 1954 u.s. open (golf), Tommy Bolt recorded a money of 570 while competing against the field."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb.EmbedText(text)
	}
}

// BenchmarkEndToEndVerify measures one full pipeline verification (retrieve
// → combine → rerank → verify → resolve) on the bench lake.
func BenchmarkEndToEndVerify(b *testing.B) {
	env := benchEnvironment(b)
	task := env.TupleTasks[0]
	_, tuple := env.Impute(task)
	g := env.TupleObject(task, tuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Pipeline.Verify(g, datalake.KindTuple, datalake.KindText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvenanceAppend measures what one lineage record costs the
// provenance store: time and allocations per Append, and bytes/record, the
// memory each verification adds for as long as the process lives. The
// records are the ones the bench pipeline appended for 64 real claims
// (about 200 hits and 150 fused candidates each).
func BenchmarkProvenanceAppend(b *testing.B) {
	env := benchEnvironment(b)
	var recs []provenance.Record
	for i, ct := range env.ClaimTasks[:64] {
		rep, err := env.Pipeline.Verify(env.ClaimObject(i, ct), datalake.KindTable)
		if err != nil {
			b.Fatal(err)
		}
		rec, _ := env.Pipeline.Provenance().Get(rep.ProvenanceSeq)
		recs = append(recs, rec)
	}
	// One pass untimed: a serving store has met the lake's instance IDs.
	store := provenance.NewStore()
	for _, rec := range recs {
		store.Append(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Append(recs[i%len(recs)])
	}
	b.StopTimer()
	st := store.Stats()
	b.ReportMetric(float64(st.Bytes)/float64(st.Records), "bytes/record")
}

// BenchmarkAblationQuantization reports the int8 vector index's recall@10
// against the float32 exact scan (no re-rank pass) over the lake's table
// and tuple vectors, and both scans' mean latency over the tuple vectors,
// at the bench scale. The acceptance bar (recall@10 >= 0.99 on the default
// lake) is held by experiments.TestAblateQuantizationRecall.
func BenchmarkAblationQuantization(b *testing.B) {
	env := benchEnvironment(b)
	var pt experiments.QuantizationPoint
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err = env.AblateQuantization(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pt.TableRecall, "table-recall@10")
	b.ReportMetric(pt.TupleRecall, "tuple-recall@10")
	b.ReportMetric(pt.QueryMicros, "quant-us/query")
	b.ReportMetric(pt.ExactQueryMicros, "exact-us/query")
}

// BenchmarkRecoveryOpen measures snapshot-restart latency — the time from
// "snapshot directory on disk" to "indexer serving" — for the two ways of
// opening a binfmt snapshot, at three lake sizes:
//
//   - binary-read: the binfmt columnar snapshot with mmap disabled
//     (REPRO_BINFMT_NOMMAP=1), i.e. one sequential read + checksum.
//   - binary-mmap: the binfmt snapshot mapped read-only; column decode is
//     pointer casting, so open cost is validation, not deserialization.
func BenchmarkRecoveryOpen(b *testing.B) {
	for _, tables := range []int{250, 1000, 4000} {
		corpus := retrievalBenchLake(b, tables, tables/2)
		icfg := core.DefaultIndexerConfig(1)
		ix, err := core.BuildIndexer(corpus.Lake, icfg)
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		if err := corpus.Lake.Quiesce(func(v uint64) error { return ix.Freeze().Save(faultfs.OS, dir, v) }); err != nil {
			b.Fatal(err)
		}
		ix.Close()
		for _, noMmap := range []bool{true, false} {
			name := "binary-mmap"
			if noMmap {
				name = "binary-read"
			}
			b.Run(fmt.Sprintf("tables=%d/%s", tables, name), func(b *testing.B) {
				if noMmap {
					b.Setenv(binfmt.NoMmapEnv, "1")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					loaded, err := core.BuildIndexerFromSnapshot(corpus.Lake, icfg, dir)
					if err != nil {
						b.Fatal(err)
					}
					loaded.Close()
				}
			})
		}
	}
}
