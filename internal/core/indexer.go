// Package core assembles VerifAI's pipeline — Indexer, Combiner, Reranker,
// and Verifier Agent (Figures 2 and 3 of the paper) — into an end-to-end
// verification service over a live multi-modal data lake, with provenance
// recording and trust-weighted verdict resolution.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/embed"
	"repro/internal/invindex"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/table"
	"repro/internal/vecindex"
)

// IndexerConfig controls index construction.
type IndexerConfig struct {
	// Seed drives the embedding space.
	Seed uint64
	// EmbedDim is the embedding dimension (default 64).
	EmbedDim int
	// EnableBM25 turns on the content-based index (default on via
	// DefaultIndexerConfig).
	EnableBM25 bool
	// EnableVector turns on the semantic index: an exhaustive cosine scan
	// over int8 rows (vecindex.SQFlat; Faiss IndexScalarQuantizer, QT_8bit,
	// flat).
	EnableVector bool
	// Kinds lists the instance granularities to index. Tables are indexed
	// whole AND per-tuple when both kinds are present, matching the paper's
	// lake of tuples, tables, and text.
	Kinds []datalake.Kind
	// ChunkTokens bounds text chunks for the semantic index (the paper's
	// "chunked text files"); <= 0 indexes whole documents.
	ChunkTokens int
	// QueryCacheSize is the capacity of the query-embedding LRU cache shared
	// by all retrievals; <= 0 disables the cache. Repeated queries (the
	// heavy-traffic case) skip the embedding computation entirely.
	QueryCacheSize int
}

// DefaultIndexerConfig indexes every modality with both index families.
func DefaultIndexerConfig(seed uint64) IndexerConfig {
	return IndexerConfig{
		Seed:         seed,
		EmbedDim:     128,
		EnableBM25:   true,
		EnableVector: true,
		Kinds: []datalake.Kind{
			datalake.KindTable, datalake.KindTuple, datalake.KindText, datalake.KindEntity,
		},
		ChunkTokens:    0,
		QueryCacheSize: 256,
	}
}

// Indexer is VerifAI's Indexer module: task-agnostic content-based (BM25)
// and semantic-based (vector) indexes over lake instances, one of each per
// modality so retrieval can target the data types a task needs; a
// retrieval searches them in parallel.
//
// The indexer is live: BuildIndexer subscribes it to the lake's change feed,
// so instances ingested after construction become retrievable immediately,
// with no rebuild. All methods are safe for concurrent use.
type Indexer struct {
	lake *datalake.Lake
	emb  *embed.Embedder
	cfg  IndexerConfig

	bm25 map[datalake.Kind]*invindex.Index
	vec  map[datalake.Kind]*vecindex.SQFlat

	qcache      *queryCache
	unsubscribe func()

	// entityRev maps each entity instance ID to the number of triples its
	// indexed page covers. Only the lake's dispatcher (and the quiesced
	// bulk load) touches it, so it needs no lock. An entity absent from it
	// — e.g. one loaded from a snapshot — is indexed at an unknown revision
	// and re-indexed by its next triple.
	entityRev map[string]int

	// m holds the per-family index-search latency handles; the zero value
	// records nothing. Deliberately NOT part of IndexerConfig: the config
	// participates in snapshot fingerprinting, metrics must not.
	m indexerMetrics
}

// indexerMetrics pre-resolves the per-family children of the index-search
// histogram vec so the search fan-out's hot closures never render labels.
type indexerMetrics struct {
	searchBM25   *obs.Histogram
	searchVector *obs.Histogram
	// adopted / skipped count index files FrozenIndexes.Adopt moved this
	// process onto, and ones it had to leave on the heap.
	adopted, skipped *obs.Counter
}

// SetMetrics registers the indexer's retrieval metrics with reg. Call it
// once at assembly, before traffic.
func (ix *Indexer) SetMetrics(reg *obs.Registry) {
	vec := reg.HistogramVec("verifai_shard_search_seconds",
		"Latency of one index search (one kind, one family), labeled by index family.", "family")
	ix.m.searchBM25 = vec.With(familyBM25)
	ix.m.searchVector = vec.With(familyVector)
	seg := reg.GaugeVec("verifai_index_segment_bytes",
		"Sealed BM25 segment bytes and vector code and norm bytes, by where they sit (heap, or a mapped index file).", "family", "residency")
	delta := reg.GaugeVec("verifai_index_delta_docs",
		"BM25 documents or vector rows written since the index's last checkpoint, held only on the heap.", "family")
	// One walk over the indexes per exposition feeds all six series.
	reg.OnCollect(func() {
		for family, r := range ix.IndexStats().Families {
			seg.With(family, "heap").Set(float64(r.HeapBytes))
			seg.With(family, "mapped").Set(float64(r.MappedBytes))
			delta.With(family).Set(float64(r.DeltaDocs))
		}
	})
	adoptions := reg.CounterVec("verifai_index_adoptions_total",
		"Index files a checkpoint moved the running indexes onto (adopted) or could not (skipped: that index stays on the heap).", "result")
	ix.m.adopted, ix.m.skipped = adoptions.With("adopted"), adoptions.With("skipped")
}

// FamilyResidency says where one index family's bulk sits: sealed BM25
// segment bytes or vector code and norm bytes, by residency, and the BM25
// delta documents or vector tail rows written since the last checkpoint.
type FamilyResidency struct {
	HeapBytes   int64 `json:"heap_bytes"`
	MappedBytes int64 `json:"mapped_bytes"`
	DeltaDocs   int   `json:"delta_docs"`
}

func (f *FamilyResidency) add(heap, mapped int64, delta int) {
	f.HeapBytes, f.MappedBytes, f.DeltaDocs = f.HeapBytes+heap, f.MappedBytes+mapped, f.DeltaDocs+delta
}

// IndexStats is the "indexes" block of /v1/stats: per-family residency
// summed over kinds, and the index files checkpoints adopted or had to
// skip (counted once SetMetrics has run).
type IndexStats struct {
	Families map[string]FamilyResidency `json:"families"`
	Adopted  uint64                     `json:"adopted"`
	Skipped  uint64                     `json:"skipped"`
}

// IndexStats reports where index memory sits.
func (ix *Indexer) IndexStats() IndexStats {
	var bm25, vec FamilyResidency
	for _, idx := range ix.bm25 {
		bm25.add(idx.Residency())
	}
	for _, idx := range ix.vec {
		vec.add(idx.Residency())
	}
	return IndexStats{
		Families: map[string]FamilyResidency{familyBM25: bm25, familyVector: vec},
		Adopted:  ix.m.adopted.Value(), Skipped: ix.m.skipped.Value(),
	}
}

// newIndexer normalizes cfg and builds the indexer's empty structures —
// the construction shared by BuildIndexer (which then bulk-indexes the
// lake) and BuildIndexerFromSnapshot (which loads persisted indexes). The
// normalized config is written back through cfg so both paths fingerprint
// identically.
func newIndexer(lake *datalake.Lake, cfg *IndexerConfig) (*Indexer, error) {
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 64
	}
	if !cfg.EnableBM25 && !cfg.EnableVector {
		return nil, fmt.Errorf("core: indexer needs at least one index family enabled")
	}
	ix := &Indexer{
		lake:      lake,
		emb:       embed.NewEmbedder(cfg.EmbedDim, cfg.Seed),
		cfg:       *cfg,
		bm25:      make(map[datalake.Kind]*invindex.Index),
		vec:       make(map[datalake.Kind]*vecindex.SQFlat),
		qcache:    newQueryCache(cfg.QueryCacheSize),
		entityRev: make(map[string]int),
	}
	for _, kind := range cfg.Kinds {
		if cfg.EnableBM25 {
			ix.bm25[kind] = invindex.New()
		}
		if cfg.EnableVector {
			ix.vec[kind] = vecindex.NewSQFlat(cfg.EmbedDim)
		}
	}
	return ix, nil
}

// BuildIndexer indexes the lake's current instances per cfg and subscribes
// to the lake's change feed for incremental maintenance: tables, documents,
// and triples added to the lake afterwards are indexed as they arrive.
func BuildIndexer(lake *datalake.Lake, cfg IndexerConfig) (*Indexer, error) {
	ix, err := newIndexer(lake, &cfg)
	if err != nil {
		return nil, err
	}
	// Bulk-index the current lake contents and subscribe to the change feed
	// atomically: SubscribeSync quiesces the lake (write lock held, event
	// queue drained) across both, so a concurrent ingest can never land
	// between the snapshot walk and the subscription (it would be neither
	// bulk-indexed nor delivered). Live events then flow through the
	// pipelined prepare/apply stages (see applier.go).
	unsubscribe, err := lake.SubscribeSync(ix.ingest, datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply})
	if err != nil {
		return nil, err
	}
	ix.unsubscribe = unsubscribe
	return ix, nil
}

// Close detaches the indexer from the lake's change feed, waiting for an
// in-flight application to return. A replaced or abandoned indexer must be
// closed, or every future ingest keeps feeding (and growing) its dead
// index structures. The indexes remain searchable after Close; they just
// stop updating. Idempotent.
func (ix *Indexer) Close() {
	if ix.unsubscribe != nil {
		ix.unsubscribe()
	}
}

// Embedder exposes the shared embedding space (the reranker uses the same
// space for late interaction).
func (ix *Indexer) Embedder() *embed.Embedder { return ix.emb }

// wantKind reports whether the config indexes this granularity.
func (ix *Indexer) wantKind(kind datalake.Kind) bool {
	for _, k := range ix.cfg.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// ingest walks the lake and feeds both index families.
func (ix *Indexer) ingest() error {
	if ix.wantKind(datalake.KindTable) || ix.wantKind(datalake.KindTuple) {
		for _, tid := range ix.lake.TableIDs() {
			t, ok := ix.lake.Table(tid)
			if !ok {
				return fmt.Errorf("core: lake table %q vanished during ingest", tid)
			}
			if err := ix.indexTable(t); err != nil {
				return err
			}
		}
	}
	if ix.wantKind(datalake.KindText) {
		for _, did := range ix.lake.DocIDs() {
			d, ok := ix.lake.Document(did)
			if !ok {
				return fmt.Errorf("core: lake document %q vanished during ingest", did)
			}
			if err := ix.indexDocument(d); err != nil {
				return err
			}
		}
	}
	if ix.wantKind(datalake.KindEntity) {
		g := ix.lake.Graph()
		for _, e := range g.Entities() {
			id := datalake.EntityInstanceID(e)
			text, rev := g.EntityPage(e)
			if err := ix.add(datalake.KindEntity, id, text); err != nil {
				return err
			}
			ix.entityRev[id] = rev
		}
	}
	return nil
}

// indexTable indexes a table whole and/or per tuple, per the configured
// kinds (bulk-load path). It runs the same prepare/apply implementation as
// the live pipeline, just synchronously on the calling goroutine.
func (ix *Indexer) indexTable(t *table.Table) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: t})
	return ix.applyOps(pe.bm25, pe.vec)
}

// indexDocument indexes a text document (whole for BM25, chunked for the
// vector family when configured), sharing the live path's implementation.
func (ix *Indexer) indexDocument(d *doc.Document) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindText, Doc: d})
	return ix.applyOps(pe.bm25, pe.vec)
}

// add indexes one instance in both families.
func (ix *Indexer) add(kind datalake.Kind, id, text string) error {
	var pe preparedEvent
	pe.addInstance(ix, kind, id, text)
	return ix.applyOps(pe.bm25, pe.vec)
}

// remove drops one instance from both families (no-op for unindexed IDs).
// For chunked text instances the vector family stores per-chunk sub-IDs
// ("id@seq"), which are enumerated and removed individually.
func (ix *Indexer) remove(kind datalake.Kind, id string) {
	if idx, ok := ix.bm25[kind]; ok {
		idx.Delete(id)
	}
	vec, ok := ix.vec[kind]
	if !ok {
		return
	}
	vec.Remove(id)
	if kind == datalake.KindText && ix.cfg.ChunkTokens > 0 {
		// Chunk sequence numbers are contiguous from 0, so stop at the
		// first miss.
		for seq := 0; ; seq++ {
			if !vec.Remove(fmt.Sprintf("%s@%d", id, seq)) {
				break
			}
		}
	}
}

// reindexEntity brings an entity's indexed page up to revision rev (the
// triple count about it when the triggering event was dispatched). A page
// already at or past rev — indexed by an earlier event of the same commit
// section, whose serialization read the post-commit graph — covers this
// event's triple, so the event completes as a no-op: a batch of triples
// indexes each entity once, not once per triple. Otherwise the stale
// instance (if any) is tombstoned and the re-serialized neighborhood
// indexed in its place. Runs on the lake's dispatcher only.
func (ix *Indexer) reindexEntity(entity string, rev int) error {
	id := datalake.EntityInstanceID(entity)
	if ix.entityRev[id] >= rev {
		return nil
	}
	text, rev := ix.lake.Graph().EntityPage(entity)
	ix.remove(datalake.KindEntity, id)
	if err := ix.add(datalake.KindEntity, id, text); err != nil {
		return err
	}
	ix.entityRev[id] = rev
	return nil
}

// queryVec embeds a query, consulting the LRU cache first.
func (ix *Indexer) queryVec(query string) embed.Vector {
	if ix.qcache != nil {
		if v, ok := ix.qcache.get(query); ok {
			return v
		}
	}
	v := ix.emb.EmbedText(query)
	if ix.qcache != nil {
		ix.qcache.put(query, v)
	}
	return v
}

// QueryCacheStats reports the query-embedding cache's hit/miss counters and
// current size (all zero when the cache is disabled), for tests and ops
// dashboards.
func (ix *Indexer) QueryCacheStats() (hits, misses uint64, size int) {
	if ix.qcache == nil {
		return 0, 0, 0
	}
	return ix.qcache.stats()
}

// retrGroup is one (kind, family) search: the index's best-first hits as
// retrieval hits, ranked in the order the index emits them.
type retrGroup struct {
	family string
	// chunked strips chunk suffixes: only text vector rows carry them, and
	// only when chunked — any other ID is the instance's own, whatever it
	// ends in.
	chunked bool
	hits    []provenance.RetrievalHit
}

func (g *retrGroup) add(id string, score float64) {
	if g.chunked {
		id = chunkParent(id)
	}
	g.hits = append(g.hits, provenance.RetrievalHit{Index: g.family, InstanceID: id, Score: score, Rank: len(g.hits)})
}

// runParallel executes tasks on a bounded worker pool (inline when the pool
// would be pointless).
func runParallel(tasks []func(), workers int) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan func())
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				t()
			}
		}()
	}
	for _, t := range tasks {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
}

// families selects which index families to search: both for Retrieve, one
// for RetrieveFamily.
const (
	familyBM25   = "bm25"
	familyVector = "vector"
)

// search runs one search per (kind, requested family) on a worker pool of
// GOMAXPROCS and returns the ranked hits in deterministic group order
// (kinds as requested, BM25 before vector). A cancelled context makes
// unstarted searches no-ops, so an abandoned request drains the pool
// quickly; the (partial) hits of a cancelled search must be discarded by
// the caller, which owns surfacing ctx.Err().
func (ix *Indexer) search(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool) []provenance.RetrievalHit {
	return ix.searchIndexes(ctx, query, k, kinds, wantBM25, wantVector, ix.bm25, ix.vec)
}

// searchIndexes is search over explicit index maps: the live indexes for
// head reads, or a pinned snapshot's materialized indexes for time-travel
// reads. Everything else — the worker pool, the query-embedding cache,
// the per-family latency metrics, the group order — is shared, so a
// pinned retrieval ranks exactly as a head retrieval over the same data.
func (ix *Indexer) searchIndexes(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool, bm25 map[datalake.Kind]*invindex.Index, vec map[datalake.Kind]*vecindex.SQFlat) []provenance.RetrievalHit {
	if len(kinds) == 0 {
		kinds = ix.cfg.Kinds
	}
	// Embed the query only when some requested kind actually has a vector
	// index; BM25-only retrievals (and kinds outside the configured set)
	// skip the embedding computation entirely. The embedding depends only
	// on (query, seed), never on index contents, so head and pinned
	// retrievals share the same cache entry.
	var qvec embed.Vector
	if wantVector {
		for _, kind := range kinds {
			if vec[kind] != nil {
				qvec = ix.queryVec(query)
				break
			}
		}
	}

	// Analyze the query once; every BM25 index shares the same chain.
	var qterms []string
	var groups []*retrGroup
	var tasks []func()
	for _, kind := range kinds {
		if idx := bm25[kind]; wantBM25 && idx != nil {
			if qterms == nil {
				qterms = idx.Analyze(query)
			}
			g := &retrGroup{family: familyBM25}
			groups = append(groups, g)
			tasks = append(tasks, func() {
				if ctx.Err() != nil {
					return
				}
				start := time.Now()
				for _, h := range idx.SearchTerms(qterms, k) {
					g.add(h.ID, h.Score)
				}
				ix.m.searchBM25.Since(start)
			})
		}
		if idx := vec[kind]; wantVector && idx != nil {
			g := &retrGroup{family: familyVector, chunked: kind == datalake.KindText && ix.cfg.ChunkTokens > 0}
			groups = append(groups, g)
			tasks = append(tasks, func() {
				if ctx.Err() != nil {
					return
				}
				start := time.Now()
				for _, h := range idx.Search(qvec, k) {
					g.add(h.ID, h.Score)
				}
				ix.m.searchVector.Since(start)
			})
		}
	}
	runParallel(tasks, runtime.GOMAXPROCS(0))

	var hits []provenance.RetrievalHit
	for _, g := range groups {
		hits = append(hits, g.hits...)
	}
	return hits
}

// Retrieve runs the task-agnostic retrieval for the query against the given
// kinds (all configured kinds when none given): top-k per index family per
// kind, searched in parallel. It returns the raw hits (for provenance) and
// the combined, deduplicated candidate IDs in best-first order — the
// Combiner of Section 3.1.
func (ix *Indexer) Retrieve(query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	return ix.RetrieveCtx(context.Background(), query, k, kinds...)
}

// RetrieveCtx is Retrieve honoring a request context: once ctx is
// cancelled, index searches that have not started are skipped, so an
// abandoned request stops occupying the retrieval worker pool. The
// possibly partial results of a cancelled retrieval are returned as-is;
// callers must check ctx.Err() and discard them.
func (ix *Indexer) RetrieveCtx(ctx context.Context, query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	hits := ix.search(ctx, query, k, kinds, true, ix.cfg.EnableVector)
	return hits, combine(hits)
}

// RetrieveFamily retrieves from a single index family ("bm25" or "vector"),
// for the Combiner ablation. Unknown family names return nothing.
func (ix *Indexer) RetrieveFamily(query, family string, k int, kinds ...datalake.Kind) []string {
	switch family {
	case familyBM25:
		return combine(ix.search(context.Background(), query, k, kinds, true, false))
	case familyVector:
		if !ix.cfg.EnableVector {
			return nil
		}
		return combine(ix.search(context.Background(), query, k, kinds, false, true))
	default:
		return nil
	}
}

// chunkParent strips a chunk suffix ("text:doc-1@2" → "text:doc-1").
func chunkParent(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '@' {
			return id[:i]
		}
		if id[i] < '0' || id[i] > '9' {
			break
		}
	}
	return id
}

// combine merges hits from all indexes, deduplicating by instance ID — the
// Combiner of Section 3.1. Ordering uses reciprocal-rank fusion
// (score = Σ 1/(60+rank) over the index lists containing the instance), the
// standard way to merge rankings from incomparable scoring functions:
// instances both families agree on rise, and one family's noise cannot bury
// the other's best hits.
func combine(hits []provenance.RetrievalHit) []string {
	if len(hits) == 0 {
		return nil
	}
	const rrfK = 60
	scores := make(map[string]float64, len(hits))
	order := make([]string, 0, len(hits))
	for _, h := range hits {
		if _, seen := scores[h.InstanceID]; !seen {
			order = append(order, h.InstanceID)
		}
		scores[h.InstanceID] += 1 / float64(rrfK+h.Rank)
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	return order
}
