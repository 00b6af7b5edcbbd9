package core

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datalake"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/trust"
	"repro/internal/verify"
)

// PipelineConfig controls the end-to-end verification flow.
type PipelineConfig struct {
	// TopK is the task-agnostic retrieval depth per index family (the paper
	// notes k is typically large, 100–1000, because the Indexer is
	// task-agnostic; the reranker shrinks it).
	TopK int
	// TopKPrime is the task-aware depth after reranking (paper: k′ = 5).
	TopKPrime int
	// ResultCache is the capacity (entries) of the verify-result cache:
	// completed verifications keyed by (task, object fingerprint, kind set)
	// and invalidated exactly when a lake write touches a kind they depend
	// on (see resultcache.go). <= 0 disables caching — every Verify
	// recomputes. An entry holds no Report, only the verification's lineage
	// record number with its verdict and confidence: a hit rebuilds the
	// Report from the record, the caller's object and the evidence resolved
	// as the miss resolved it, so it equals the original Report, including
	// its ProvenanceSeq — identical requests against an unchanged lake share
	// one lineage record. A pipeline without a provenance store therefore
	// has no result cache, whatever ResultCache says.
	ResultCache int
	// SnapshotRetain bounds the unpinned time-travel snapshot population
	// (keep-last-N; explicit pins are retained regardless). <= 0 selects
	// datalake.DefaultSnapshotRetain.
	SnapshotRetain int
	// Metrics, when non-nil, registers the pipeline's serving-path metrics
	// (per-stage spans, verifier call counters, result- and query-cache
	// mirrors, per-family index search latency) with the registry. Nil
	// disables instrumentation at zero cost on the hot path.
	Metrics *obs.Registry
}

// DefaultPipelineConfig returns the paper's settings, with the
// verify-result cache enabled (the verifiers are deterministic, so a
// Report rebuilt from the cache equals a recomputed one).
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{TopK: 100, TopKPrime: 5, ResultCache: 4096}
}

// Pipeline is the assembled VerifAI system. It is safe for concurrent use:
// verification, retrieval, trust updates, and lake ingestion may all run at
// the same time.
type Pipeline struct {
	lake      *datalake.Lake
	indexer   *Indexer
	rerankers *rerank.Registry
	agent     *verify.Agent
	prov      *provenance.Store
	trustMu   sync.RWMutex
	trust     map[string]float64
	cfg       PipelineConfig
	// rcache is the versioned verify-result cache (nil when disabled).
	rcache *resultCache
	// snapshots retains time-travel snapshots (never nil; see snapshot.go).
	snapshots   *datalake.SnapshotRegistry
	pinnedReads *obs.Counter
	// snapshotRebuilds counts the snapshots a read re-indexed, with or
	// without metrics; snapshotRebuildSec times each.
	snapshotRebuilds   atomic.Uint64
	snapshotRebuildSec *obs.Histogram
	// obs is the metrics registry (nil disables spans and counters; every
	// handle below is nil-safe, so the hot path never branches on it).
	obs           *obs.Registry
	verifierCalls *obs.Counter
	verifierSec   *obs.Histogram
}

// NewPipeline assembles a pipeline. sourceTrust maps source IDs to trust in
// [0,1]; missing sources default to their lake prior (or 0.5). A nil
// provenance store disables lineage recording, and with it the result
// cache, whose entries are rebuilt from lineage.
func NewPipeline(lake *datalake.Lake, indexer *Indexer, rr *rerank.Registry, agent *verify.Agent,
	prov *provenance.Store, sourceTrust map[string]float64, cfg PipelineConfig) (*Pipeline, error) {
	if lake == nil || indexer == nil || rr == nil || agent == nil {
		return nil, fmt.Errorf("core: pipeline needs lake, indexer, rerankers, and agent")
	}
	if cfg.TopK <= 0 || cfg.TopKPrime <= 0 {
		return nil, fmt.Errorf("core: non-positive retrieval depths (TopK=%d, TopKPrime=%d)", cfg.TopK, cfg.TopKPrime)
	}
	if sourceTrust == nil {
		sourceTrust = make(map[string]float64)
	}
	p := &Pipeline{
		lake: lake, indexer: indexer, rerankers: rr, agent: agent,
		prov: prov, trust: sourceTrust, cfg: cfg,
		snapshots: datalake.NewSnapshotRegistry(cfg.SnapshotRetain),
	}
	if cfg.ResultCache > 0 && prov != nil {
		p.rcache = newResultCache(cfg.ResultCache)
		if err := p.rcache.attach(lake); err != nil {
			return nil, fmt.Errorf("core: attach result cache: %w", err)
		}
	}
	if cfg.Metrics != nil {
		p.installMetrics(cfg.Metrics)
	}
	return p, nil
}

// installMetrics registers the pipeline's serving-path metrics with reg:
// verifier call volume and latency, mirrors of the result- and
// query-cache counters (the same atomics Stats() snapshots), the
// provenance store's size gauges, and the indexer's per-family
// index-search histograms.
func (p *Pipeline) installMetrics(reg *obs.Registry) {
	p.obs = reg
	// Touch the stage family eagerly so an idle system's exposition is
	// already complete (spans register their own stage labels lazily).
	reg.Stages()
	p.verifierCalls = reg.Counter("verifai_verifier_calls_total",
		"Evidence verifications executed by the verifier agent (cache hits excluded).")
	p.verifierSec = reg.Histogram("verifai_verifier_call_seconds",
		"Latency of one verifier agent call over one evidence instance.")
	p.pinnedReads = reg.Counter("verifai_pinned_reads_total",
		"Verifications served against a retained snapshot (?version= time-travel reads).")
	p.snapshotRebuildSec = reg.HistogramBuckets("verifai_snapshot_rebuild_seconds",
		"Re-indexes of a retained snapshot's view at its first read (a checkpoint's snapshot, or a pin recovered from index files in another format); _count is the number of rebuilds.",
		obs.CheckpointBuckets)
	p.snapshots.SetMetrics(reg)
	if p.prov != nil {
		p.prov.SetMetrics(reg)
	}
	if rc := p.rcache; rc != nil {
		reg.CounterFunc("verifai_result_cache_hits_total",
			"Verify-result cache hits.", rc.hits.Load)
		reg.CounterFunc("verifai_result_cache_misses_total",
			"Verify-result cache misses.", rc.misses.Load)
		reg.CounterFunc("verifai_result_cache_invalidations_total",
			"Verify-result cache entries evicted because a lake write or trust override staled them.", rc.invalidations.Load)
		reg.GaugeFunc("verifai_result_cache_entries",
			"Verify-result cache resident entries.", func() float64 { n, _ := rc.size(); return float64(n) })
	}
	p.indexer.SetMetrics(reg)
}

// Close detaches the pipeline's result cache from the lake's change feed.
// A discarded pipeline with caching enabled should be closed (like its
// Indexer), or the dead subscription keeps observing every future ingest.
// The pipeline remains usable for verification after Close — cache entries
// just stop invalidating, so only call it when retiring the pipeline.
// Idempotent.
func (p *Pipeline) Close() {
	if p.rcache != nil {
		p.rcache.close()
	}
}

// Provenance returns the pipeline's lineage store (nil when disabled).
func (p *Pipeline) Provenance() *provenance.Store { return p.prov }

// Lake returns the underlying data lake.
func (p *Pipeline) Lake() *datalake.Lake { return p.lake }

// Indexer returns the pipeline's indexer.
func (p *Pipeline) Indexer() *Indexer { return p.indexer }

// SourceTrust returns the trust assigned to a source (its lake prior, then
// 0.5, when not explicitly set).
func (p *Pipeline) SourceTrust(sourceID string) float64 {
	p.trustMu.RLock()
	t, ok := p.trust[sourceID]
	p.trustMu.RUnlock()
	if ok {
		return t
	}
	if s, ok := p.lake.Source(sourceID); ok {
		return s.TrustPrior
	}
	return 0.5
}

// SetSourceTrust overrides a source's trust (e.g. from trust.Estimate).
// Trust re-weights verdict resolution, so the override invalidates every
// cached verification result.
func (p *Pipeline) SetSourceTrust(sourceID string, t float64) {
	p.trustMu.Lock()
	p.trust[sourceID] = t
	p.trustMu.Unlock()
	if p.rcache != nil {
		p.rcache.bumpEpoch()
	}
}

// Stats reports the pipeline's serving-path counters: verify-result cache
// hits/misses/invalidations, for ops dashboards (/v1/stats) and tests. All
// cache fields are zero when the cache is disabled.
type Stats struct {
	// ResultCache* describe the verify-result cache. Invalidations counts
	// entries evicted because a lake write touched a kind they depended on
	// (or a trust override bumped the epoch) — counted lazily, at the
	// lookup that finds the entry stale.
	ResultCacheHits          uint64 `json:"result_cache_hits"`
	ResultCacheMisses        uint64 `json:"result_cache_misses"`
	ResultCacheInvalidations uint64 `json:"result_cache_invalidations"`
	ResultCacheSize          int    `json:"result_cache_size"`
	// ResultCacheBytes is the heap the entries hold, keys included.
	ResultCacheBytes int64 `json:"result_cache_bytes"`
	// QueryCacheHits and QueryCacheMisses are always zero: there is no
	// query-embedding cache. They stay only because bench/trace.go still
	// reads them; they go once the benchmark stops reading them.
	QueryCacheHits   uint64 `json:"-"`
	QueryCacheMisses uint64 `json:"-"`
}

// Stats snapshots the pipeline's serving-path counters.
func (p *Pipeline) Stats() Stats {
	var s Stats
	if p.rcache != nil {
		s.ResultCacheHits, s.ResultCacheMisses, s.ResultCacheInvalidations = p.rcache.hits.Load(), p.rcache.misses.Load(), p.rcache.invalidations.Load()
		s.ResultCacheSize, s.ResultCacheBytes = p.rcache.size()
	}
	return s
}

// Evidence is one verified evidence instance in a report.
type Evidence struct {
	// Instance is the lake instance used as evidence.
	Instance datalake.Instance
	// RerankScore is the task-aware relevance score.
	RerankScore float64
	// Result is the verifier's decision.
	Result verify.Result
	// SourceTrust is the trust of the evidence's source at decision time.
	SourceTrust float64
}

// Report is the outcome of verifying one generated object.
type Report struct {
	// Object is the generated data under verification.
	Object verify.Generated
	// Evidence lists the verified instances in rerank order.
	Evidence []Evidence
	// Verdict is the trust-weighted resolution over the evidence verdicts.
	Verdict verify.Verdict
	// Confidence is the winning verdict's share of trust-weighted votes
	// among decisive (non-NotRelated) evidence; 0 when nothing was decisive.
	Confidence float64
	// ProvenanceSeq is the lineage record's sequence number (-1 when
	// provenance is disabled).
	ProvenanceSeq int
	// AsOfVersion is the retained snapshot version the report was computed
	// against (0 for a head read): the reproducibility stamp — re-verifying
	// at the same pin yields an identical report no matter what has been
	// ingested since.
	AsOfVersion uint64 `json:",omitempty"`
}

// Retrieve runs only the Indexer+Combiner stage, for retrieval experiments.
func (p *Pipeline) Retrieve(g verify.Generated, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	return p.indexer.Retrieve(g.Query(), k, kinds...)
}

// normalizeKinds resolves the effective evidence-kind set for one request:
// every kind when empty, sorted and deduplicated
// otherwise. Retrieval searches each kind once and the combiner is
// order-independent, so the normalized set retrieves identically to the
// caller's — and it gives cache keys a canonical form.
func (p *Pipeline) normalizeKinds(kinds []datalake.Kind) []datalake.Kind {
	if len(kinds) == 0 {
		return allKinds
	}
	out := append([]datalake.Kind(nil), kinds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, k := range out {
		if i == 0 || k != out[n-1] {
			out[n] = k
			n++
		}
	}
	return out[:n]
}

// Verify runs the full pipeline for a generated object: retrieve → combine
// → rerank → verify each evidence instance → resolve a final verdict by
// trust-weighted vote → record provenance.
//
// kinds restricts the evidence modalities (e.g. only tables for textual
// claims, as in the paper's Section 4 setting); empty means all indexed
// modalities.
func (p *Pipeline) Verify(g verify.Generated, kinds ...datalake.Kind) (Report, error) {
	return p.VerifyCtx(context.Background(), g, kinds...)
}

// VerifyCtx is Verify honoring a request context: cancellation or deadline
// expiry aborts the remaining retrieval, reranking, and evidence
// verification and returns the context's error, so an abandoned HTTP
// request stops burning CPU mid-flight.
//
// When the result cache is enabled, a verification of the same (object,
// kinds) fingerprint against an unchanged lake (no write touching the
// requested kinds, no trust override) is rebuilt from its lineage record
// without recomputing; cancelled or failed verifications are never cached.
func (p *Pipeline) VerifyCtx(ctx context.Context, g verify.Generated, kinds ...datalake.Kind) (Report, error) {
	return p.verifyCached(ctx, g, p.normalizeKinds(kinds))
}

// verifyCached is a head verification behind the result-cache lookup/fill —
// the single serving path behind VerifyCtx. kinds must be normalized
// (non-empty).
func (p *Pipeline) verifyCached(ctx context.Context, g verify.Generated, kinds []datalake.Kind) (Report, error) {
	run := func() (Report, error) { return p.verifyAgainst(ctx, g, kinds, p.headSource(), 0) }
	if p.rcache == nil {
		return run()
	}
	return p.cached(cacheKey(g, kinds), g, kinds, p.lake.Resolve, run)
}

// cached serves g from the result cache under key, rebuilding a hit with
// resolve, or calls run and caches its outcome. The validity stamps are
// read before run touches the indexes: every index read reflects at
// least this published version, and a write landing mid-verification makes
// the stamp conservatively stale. Cancelled or failed verifications are
// never cached.
func (p *Pipeline) cached(key string, g verify.Generated, kinds []datalake.Kind,
	resolve func(string) (datalake.Instance, error), run func() (Report, error)) (Report, error) {
	if rep, ok := p.rcache.get(key, kinds, func(e rcEntry) (Report, bool) { return p.rebuild(g, e, resolve) }); ok {
		return rep, nil
	}
	version, epoch := p.lake.Version(), p.rcache.epoch.Load()
	rep, err := run()
	if err == nil {
		p.rcache.put(key, kinds, version, epoch, rep)
	}
	return rep, err
}

// evidenceSource is the seam between the verification flow and the data it
// reads: retrieval over some set of indexes, instance resolution
// against some catalog, and a trust function. Head reads bind it to the
// live indexer/lake/trust map; time-travel reads bind it to a pinned
// snapshot's frozen indexes, immutable View, and pin-time trust copy — the
// rest of the flow (rerank, verify, verdict, provenance) is shared.
// Resolution comes twice: borrow hands the reranker every candidate
// without copying it, for the length of one call, and resolve copies the
// k′ the reranker keeps, for the verifiers, the Report and lineage.
type evidenceSource struct {
	retrieve func(ctx context.Context, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit
	borrow   func(instanceIDs []string, fn func([]datalake.Instance) error) error
	resolve  func(instanceID string) (datalake.Instance, error)
	trust    func(sourceID string) float64
}

// headSource binds the evidence seam to the live lake and indexes.
func (p *Pipeline) headSource() evidenceSource {
	return evidenceSource{
		retrieve: func(ctx context.Context, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit {
			return p.indexer.search(ctx, query, k, kinds, true, true)
		},
		borrow:  p.lake.ResolveBorrowed,
		resolve: p.lake.Resolve,
		trust:   p.SourceTrust,
	}
}

// verifyAgainst runs the full retrieve → combine → rerank → verify →
// resolve → provenance flow against an explicit evidence source, stamping
// the report with asOf (0 for head reads). This is the single verification
// body behind head and pinned reads, and it runs on its caller's
// goroutine: requests are the parallel unit.
func (p *Pipeline) verifyAgainst(ctx context.Context, g verify.Generated, kinds []datalake.Kind, src evidenceSource, asOf uint64) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	query := g.Query()
	endRetrieve := p.obs.Span(ctx, "retrieve")
	hits := src.retrieve(ctx, query, p.cfg.TopK, kinds)
	combined := provenance.Combine(hits)
	endRetrieve()
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	// Resolve the candidates without copying them and rerank them to
	// top-k′, then copy the k′ kept. Resolution failures indicate
	// index/lake drift and are surfaced, not skipped.
	stage := p.obs.Span(ctx, "resolve")
	var rerankEntries []provenance.RerankEntry
	err := src.borrow(combined, func(candidates []datalake.Instance) error {
		stage()
		stage = p.obs.Span(ctx, "rerank")
		rerankEntries = p.rerank(g, candidates)
		return nil
	})
	var ordered []datalake.Instance
	for i := 0; err == nil && i < len(rerankEntries); i++ {
		var in datalake.Instance
		in, err = src.resolve(rerankEntries[i].InstanceID)
		ordered = append(ordered, in)
	}
	stage()
	if err != nil {
		return Report{}, fmt.Errorf("core: resolve candidate: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	// Verify each evidence instance via the Agent, then aggregate in rank
	// order.
	endVerify := p.obs.Span(ctx, "verify")
	results, err := p.verifyEvidence(ctx, g, ordered)
	endVerify()
	if err != nil {
		return Report{}, err
	}
	report := Report{Object: g, ProvenanceSeq: -1, AsOfVersion: asOf}
	votes := make(map[string][]float64)
	var decisions []provenance.VerifierDecision
	if len(ordered) > 0 {
		report.Evidence = make([]Evidence, 0, len(ordered))
		decisions = make([]provenance.VerifierDecision, 0, len(ordered))
	}
	for i, in := range ordered {
		res := results[i]
		st := src.trust(in.SourceID)
		report.Evidence = append(report.Evidence, Evidence{
			Instance: in, Result: res, SourceTrust: st, RerankScore: rerankEntries[i].Score,
		})
		decisions = append(decisions, provenance.VerifierDecision{
			InstanceID:  in.ID,
			SourceID:    in.SourceID,
			Verifier:    res.Verifier,
			Verdict:     res.Verdict.String(),
			Explanation: res.Explanation,
			SourceTrust: st,
		})
		if res.Verdict != verify.NotRelated {
			votes[res.Verdict.String()] = append(votes[res.Verdict.String()], st)
		}
	}

	// Resolve: trust-weighted majority over decisive verdicts.
	resolution := "no decisive evidence"
	report.Verdict = verify.NotRelated
	if len(votes) > 0 {
		label, share := trust.WeightedVerdict(votes)
		report.Confidence = share
		resolution = "trust-weighted majority"
		switch label {
		case verify.Verified.String():
			report.Verdict = verify.Verified
		case verify.Refuted.String():
			report.Verdict = verify.Refuted
		}
	}

	if p.prov != nil {
		endProv := p.obs.Span(ctx, "provenance")
		defer endProv()
		report.ProvenanceSeq = p.prov.Append(provenance.Record{
			ObjectID:     g.ID,
			Query:        query,
			Hits:         hits,
			Combined:     combined,
			Reranked:     rerankEntries,
			Decisions:    decisions,
			FinalVerdict: report.Verdict.String(),
			Resolution:   resolution,
		})
	}
	return report, nil
}

// rerank orders borrowed candidates task-aware and keeps the top k′,
// naming them by ID, so nothing it returns holds a candidate.
func (p *Pipeline) rerank(g verify.Generated, candidates []datalake.Instance) []provenance.RerankEntry {
	var entries []provenance.RerankEntry
	for rank, s := range p.rerankers.Rerank(toRerankQuery(g), candidates, p.cfg.TopKPrime) {
		entries = append(entries, provenance.RerankEntry{InstanceID: s.ID, Score: s.Score, Rank: rank})
	}
	return entries
}

// verifyEvidence runs the Agent over each evidence instance in rank order
// and returns the first error, or the context's once it has ended. The
// context is checked before each verification and after the last, so a
// deadline that expires inside one still fails the verify.
func (p *Pipeline) verifyEvidence(ctx context.Context, g verify.Generated, ordered []datalake.Instance) ([]verify.Result, error) {
	results := make([]verify.Result, len(ordered))
	for i, in := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := p.agent.Verify(g, in)
		p.verifierCalls.Inc()
		p.verifierSec.Since(start)
		if err != nil {
			return nil, cmp.Or(ctx.Err(), err)
		}
		results[i] = res
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// toRerankQuery converts a generated object into the reranker's query view.
func toRerankQuery(g verify.Generated) rerank.Query {
	q := rerank.Query{Text: g.Query()}
	switch g.Kind {
	case verify.KindTuple:
		tp := g.Tuple
		q.Tuple = &tp
	case verify.KindClaim:
		c := g.Claim
		q.Claim = &c
	}
	return q
}
