// Package core assembles VerifAI's pipeline — Indexer, Combiner, Reranker,
// and Verifier Agent (Figures 2 and 3 of the paper) — into an end-to-end
// verification service over a live multi-modal data lake, with provenance
// recording and trust-weighted verdict resolution.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/embed"
	"repro/internal/invindex"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/provenance"
	"repro/internal/table"
	"repro/internal/vecindex"
)

// IndexerConfig controls index construction. Every kind of allKinds gets
// both index families: a content-based one (BM25) and a semantic one, an
// exhaustive cosine scan over int8 rows (vecindex.SQFlat; Faiss
// IndexScalarQuantizer, QT_8bit, flat).
type IndexerConfig struct {
	// Seed drives the embedding space.
	Seed uint64
	// EmbedDim is the embedding dimension (default 128).
	EmbedDim int
	// QueryCacheSize is the capacity of the query-embedding LRU cache shared
	// by all retrievals; <= 0 disables the cache. Repeated queries (the
	// heavy-traffic case) skip the embedding computation entirely.
	QueryCacheSize int
}

// defaultEmbedDim is the embedding dimension of a config that leaves
// EmbedDim zero.
const defaultEmbedDim = 128

// allKinds are the instance granularities every indexer indexes, in
// order, each kind at its own value's position: tables whole and per
// tuple, matching the paper's lake of tuples, tables and text, and
// knowledge-graph entities.
var allKinds = []datalake.Kind{datalake.KindTable, datalake.KindTuple, datalake.KindText, datalake.KindEntity}

// DefaultIndexerConfig is the indexer's default configuration.
func DefaultIndexerConfig(seed uint64) IndexerConfig {
	return IndexerConfig{Seed: seed, EmbedDim: defaultEmbedDim, QueryCacheSize: 256}
}

// Indexer is VerifAI's Indexer module: task-agnostic content-based (BM25)
// and semantic-based (vector) indexes over lake instances, one of each per
// modality so retrieval can target the data types a task needs; a
// retrieval searches them in turn, on its caller's goroutine. A vector row
// is always the embedding of exactly the terms its instance's BM25
// document holds, which is what lets a restart derive the vector indexes
// from the BM25 ones.
//
// The indexer is live: BuildIndexer subscribes it to the lake's change feed,
// so instances ingested after construction become retrievable immediately,
// with no rebuild. All methods are safe for concurrent use.
type Indexer struct {
	lake *datalake.Lake
	// emb embeds instances and queries; its term dictionary numbers the
	// terms of every bag the indexes are fed and of their BM25 deltas.
	emb *embed.Embedder
	cfg IndexerConfig

	bm25 map[datalake.Kind]*invindex.Index
	vec  map[datalake.Kind]*vecindex.SQFlat

	qcache      *queryCache
	unsubscribe func()

	// entityRev maps each entity instance ID to the number of triples its
	// indexed page covers. Only apply, under the lake's apply lock (and
	// the quiesced bulk load), touches it, so it needs no lock of its own. An entity absent from it
	// — e.g. one loaded from a snapshot — is indexed at an unknown revision
	// and re-indexed by its next triple.
	entityRev map[string]int

	// deriveNanos is how long the last open of persisted indexes spent
	// deriving vector indexes (openIndexes).
	deriveNanos atomic.Int64

	// m holds the per-family index-search latency handles; the zero value
	// records nothing. Deliberately NOT part of IndexerConfig: the config
	// participates in snapshot fingerprinting, metrics must not.
	m indexerMetrics
}

// indexerMetrics pre-resolves the per-family children of the index-search
// histogram vec so the search loop never renders labels.
type indexerMetrics struct {
	searchBM25   *obs.Histogram
	searchVector *obs.Histogram
}

// SetMetrics registers the indexer's retrieval metrics with reg. Call it
// once at assembly, before traffic.
func (ix *Indexer) SetMetrics(reg *obs.Registry) {
	vec := reg.HistogramVec("verifai_shard_search_seconds",
		"Latency of one index search (one kind, one family), labeled by index family.", "family")
	ix.m.searchBM25 = vec.With(familyBM25)
	ix.m.searchVector = vec.With(familyVector)
	seg := reg.GaugeVec("verifai_index_segment_bytes",
		"Sealed BM25 and vector segment bytes, whole containers in process-private memory (Go heap and anonymous mappings alike), plus the deltas' Go heap (BM25: estimated; vector: tail codes and norms).", "family")
	delta := reg.GaugeVec("verifai_index_delta_docs",
		"BM25 documents or vector rows written since the index's last seal, held only on the heap.", "family")
	segs := reg.GaugeVec("verifai_index_segments",
		"Sealed segments the indexes of a family search, summed over kinds.", "family")
	// One walk over the indexes per exposition feeds all six series.
	reg.OnCollect(func() {
		for family, r := range ix.IndexStats().Families {
			seg.With(family).Set(float64(r.HeapBytes))
			delta.With(family).Set(float64(r.DeltaDocs))
			segs.With(family).Set(float64(r.Segments))
		}
	})
	reg.GaugeFunc("verifai_index_derive_seconds",
		"Time the last open of persisted indexes spent deriving the vector indexes from the BM25 ones.",
		func() float64 { return time.Duration(ix.deriveNanos.Load()).Seconds() })
}

// FamilyResidency says what one index family holds: HeapBytes is its
// sealed segments' bytes, whole containers in process-private memory (Go
// heap and anonymous mappings alike), plus what its deltas hold on the Go
// heap (BM25: the estimate TailBytes; vector: the tail's code and norm
// bytes); then the BM25 delta documents or vector tail rows written since
// the last seal, the estimated Go heap those deltas hold, and the segments
// searched. With nothing written since a checkpoint, the BM25 HeapBytes is
// what the family's index files inflate to, byte for byte, plus the table
// kind's segment, which has no file; vectors have no files.
type FamilyResidency struct {
	HeapBytes int64 `json:"heap_bytes"`
	DeltaDocs int   `json:"delta_docs"`
	TailBytes int64 `json:"tail_bytes"`
	Segments  int   `json:"segments"`
}

// IndexStats is the "indexes" block of /v1/stats: per-family residency
// summed over kinds, and the milliseconds the last open of persisted
// indexes spent deriving the vector indexes.
type IndexStats struct {
	Families map[string]FamilyResidency `json:"families"`
	DeriveMS float64                    `json:"derive_ms"`
}

// IndexStats reports where index memory sits.
func (ix *Indexer) IndexStats() IndexStats {
	var bm25, vec FamilyResidency
	for _, idx := range ix.bm25 {
		bytes, docs := idx.Residency()
		bm25.HeapBytes, bm25.DeltaDocs = bm25.HeapBytes+bytes, bm25.DeltaDocs+docs
		bm25.TailBytes += idx.DeltaBytes()
		bm25.Segments += idx.Segments()
	}
	for _, idx := range ix.vec {
		bytes, rows := idx.Residency()
		vec.HeapBytes, vec.DeltaDocs = vec.HeapBytes+bytes, vec.DeltaDocs+rows
		vec.TailBytes += idx.TailBytes()
		vec.Segments += idx.Segments()
	}
	return IndexStats{
		Families: map[string]FamilyResidency{familyBM25: bm25, familyVector: vec},
		DeriveMS: float64(ix.deriveNanos.Load()) / 1e6,
	}
}

// newIndexer normalizes cfg and builds the indexer's empty structures —
// the construction shared by BuildIndexer (which then bulk-indexes the
// lake) and BuildIndexerFromSnapshot (which loads persisted indexes). The
// normalized config is written back through cfg so both paths fingerprint
// identically.
func newIndexer(lake *datalake.Lake, cfg *IndexerConfig) *Indexer {
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = defaultEmbedDim
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
	for _, kind := range allKinds {
		ix.bm25[kind] = invindex.NewWithDict(ix.emb.Dict())
		ix.vec[kind] = vecindex.NewSQFlat(cfg.EmbedDim)
	}
	return ix
}

// BuildIndexer indexes the lake's current instances per cfg and subscribes
// to the lake's change feed for incremental maintenance: tables, documents,
// and triples added to the lake afterwards are indexed as they arrive.
func BuildIndexer(lake *datalake.Lake, cfg IndexerConfig) (*Indexer, error) {
	ix := newIndexer(lake, &cfg)
	// Bulk-index the current lake contents and subscribe to the change feed
	// atomically: Subscribe quiesces the lake (write and apply locks held)
	// across both, so a concurrent ingest can never land
	// between the snapshot walk and the subscription (it would be neither
	// bulk-indexed nor delivered). Live events then flow through the
	// pipelined prepare/apply stages (see applier.go).
	unsubscribe, err := lake.Subscribe(func() error { return ix.ingest(lake, lake.Graph()) },
		datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply, Seal: ix.Seal})
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

// Seal seals the delta of every index into a segment of its list (see
// invindex.Index.Seal and vecindex.SQFlat.Seal), indexes in parallel: the
// lake's Subscriber.Seal, so the deltas leave the Go heap when the lake's
// tail does.
func (ix *Indexer) Seal() {
	var tasks []func()
	for _, kind := range allKinds {
		tasks = append(tasks, ix.bm25[kind].Seal, ix.vec[kind].Seal)
	}
	par.For(len(tasks), runtime.GOMAXPROCS(0), func(i int) { tasks[i]() })
}

// Embedder exposes the shared embedding space (the reranker uses the same
// space for late interaction).
func (ix *Indexer) Embedder() *embed.Embedder { return ix.emb }

// catalog is what a bulk index build reads: a quiesced lake, or the view
// of a pinned snapshot whose index files are stale.
type catalog interface {
	TableIDs() []string
	Table(id string) (*table.Table, bool)
	DocIDs() []string
	Document(id string) (*doc.Document, bool)
}

// ingest walks the catalog's instances, and the entities of its graph g,
// and feeds both index families.
func (ix *Indexer) ingest(c catalog, g *kg.Graph) error {
	for _, tid := range c.TableIDs() {
		t, ok := c.Table(tid)
		if !ok {
			return fmt.Errorf("core: lake table %q vanished during ingest", tid)
		}
		if err := ix.indexTable(t); err != nil {
			return err
		}
	}
	for _, did := range c.DocIDs() {
		d, ok := c.Document(did)
		if !ok {
			return fmt.Errorf("core: lake document %q vanished during ingest", did)
		}
		if err := ix.indexDocument(d); err != nil {
			return err
		}
	}
	for _, e := range g.Entities() {
		id := datalake.EntityInstanceID(e)
		text, rev := g.EntityPage(e)
		if err := ix.add(datalake.KindEntity, id, text); err != nil {
			return err
		}
		ix.entityRev[id] = rev
	}
	return nil
}

// indexTable indexes a table whole and per tuple (bulk-load path). It runs
// the same prepare/apply implementation as the live pipeline, just
// synchronously on the calling goroutine.
func (ix *Indexer) indexTable(t *table.Table) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: t})
	return ix.applyOps(pe)
}

// indexDocument indexes a text document, sharing the live path's
// implementation.
func (ix *Indexer) indexDocument(d *doc.Document) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindText, Doc: d})
	return ix.applyOps(pe)
}

// add indexes one instance in both families.
func (ix *Indexer) add(kind datalake.Kind, id, text string) error {
	var pe preparedEvent
	pe.addInstance(ix, make(embed.Vector, ix.emb.Dim()), kind, id, text)
	return ix.applyOps(&pe)
}

// remove drops one instance from both families (no-op for unindexed IDs).
func (ix *Indexer) remove(kind datalake.Kind, id string) {
	if idx, ok := ix.bm25[kind]; ok {
		idx.Delete(id)
		ix.vec[kind].Remove(id)
	}
}

// reindexEntity brings an entity's indexed page up to revision rev (the
// triple count about it when the triggering event committed). A page
// already at or past rev — indexed by an earlier event of the same commit
// section, whose serialization read the post-commit graph — covers this
// event's triple, so the event completes as a no-op: a batch of triples
// indexes each entity once, not once per triple. Otherwise the stale
// instance (if any) is tombstoned and the re-serialized neighborhood
// indexed in its place. Runs under the lake's apply lock only.
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

// families selects which index families to search: both for Retrieve, one
// for RetrieveFamily.
const (
	familyBM25   = "bm25"
	familyVector = "vector"
)

// search runs one search per (kind, requested family) in turn, on the
// calling goroutine, and returns the ranked hits in group order (kinds as
// requested, BM25 before vector), each ranked as its index emits it. A
// cancelled context stops it before the next kind, so an abandoned request
// returns quickly; the (partial) hits of a cancelled search must be
// discarded by the caller, which owns surfacing ctx.Err().
func (ix *Indexer) search(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool) []provenance.RetrievalHit {
	return ix.searchIndexes(ctx, query, k, kinds, wantBM25, wantVector, ix.bm25, ix.vec)
}

// searchIndexes is search over explicit index maps: the live indexes for
// head reads, or a pinned snapshot's materialized indexes for time-travel
// reads. Everything else — the search order, the query-embedding cache,
// the per-family latency metrics — is shared, so a pinned retrieval ranks
// exactly as a head retrieval over the same data.
func (ix *Indexer) searchIndexes(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool, bm25 map[datalake.Kind]*invindex.Index, vec map[datalake.Kind]*vecindex.SQFlat) []provenance.RetrievalHit {
	if len(kinds) == 0 {
		kinds = allKinds
	}
	// Analyze the query once, through the head's dictionary without adding
	// to it: every BM25 index, a pinned one over a dictionary of its own
	// included, shares the same chain and resolves the terms itself.
	var qterms []string
	if wantBM25 {
		qterms = ix.emb.Dict().AppendTerms(nil, query)
	}
	// The query is embedded at the first vector index searched, so
	// BM25-only retrievals (and kinds no index holds) skip the embedding.
	// It depends only on (query, seed), never on index contents, so head
	// and pinned retrievals share the same cache entry.
	var qvec embed.Vector
	// Each search returns at most k hits: room for all of them up front,
	// so the slice is never regrown.
	families := 0
	if wantBM25 {
		families++
	}
	if wantVector {
		families++
	}
	hits := make([]provenance.RetrievalHit, 0, k*families*len(kinds))
	for _, kind := range kinds {
		if ctx.Err() != nil {
			return hits
		}
		if idx := bm25[kind]; wantBM25 && idx != nil {
			start := time.Now()
			for rank, h := range idx.SearchTerms(qterms, k) {
				hits = append(hits, provenance.RetrievalHit{Index: familyBM25, InstanceID: h.ID, Score: h.Score, Rank: rank})
			}
			ix.m.searchBM25.Since(start)
		}
		if idx := vec[kind]; wantVector && idx != nil {
			if qvec == nil {
				qvec = ix.queryVec(query)
			}
			start := time.Now()
			for rank, h := range idx.Search(qvec, k) {
				hits = append(hits, provenance.RetrievalHit{Index: familyVector, InstanceID: h.ID, Score: h.Score, Rank: rank})
			}
			ix.m.searchVector.Since(start)
		}
	}
	return hits
}

// Retrieve runs the task-agnostic retrieval for the query against the given
// kinds (every kind when none given): top-k per index family per
// kind, searched in turn. It returns the raw hits (for provenance) and
// the combined, deduplicated candidate IDs in best-first order — the
// Combiner of Section 3.1.
func (ix *Indexer) Retrieve(query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	return ix.RetrieveCtx(context.Background(), query, k, kinds...)
}

// RetrieveCtx is Retrieve honoring a request context: once ctx is
// cancelled, the kinds not yet searched are skipped, so an abandoned
// request stops searching. The possibly partial results of a cancelled
// retrieval are returned as-is; callers must check ctx.Err() and discard
// them.
func (ix *Indexer) RetrieveCtx(ctx context.Context, query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	hits := ix.search(ctx, query, k, kinds, true, true)
	return hits, provenance.Combine(hits)
}

// RetrieveFamily retrieves from a single index family ("bm25" or "vector"),
// for the Combiner ablation. Unknown family names return nothing.
func (ix *Indexer) RetrieveFamily(query, family string, k int, kinds ...datalake.Kind) []string {
	switch family {
	case familyBM25:
		return provenance.Combine(ix.search(context.Background(), query, k, kinds, true, false))
	case familyVector:
		return provenance.Combine(ix.search(context.Background(), query, k, kinds, false, true))
	default:
		return nil
	}
}
