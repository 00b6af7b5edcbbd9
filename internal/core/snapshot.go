package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/vecindex"
	"repro/internal/verify"
)

// Time-travel reads. A checkpoint's fork already pins everything a
// reproducible verdict needs — an immutable catalog View plus a frozen
// capture of every index at one version. This file generalizes that
// pair into a retained, queryable snapshot: the pipeline registers the
// (View, FrozenIndexes, trust copy) triple with a datalake.SnapshotRegistry,
// and VerifyAsOfCtx runs the full retrieve→rerank→verify flow against it,
// so a verdict computed at version v recomputes identically long after the
// lake (and the operator's trust overrides) have moved on.

// PinnedSnapshot is the payload the pipeline hangs on a datalake.Snapshot:
// the frozen indexes, the trust overrides in force at pin time, and —
// lazily, on first pinned read — searchable wrappers around the frozen
// capture (or indexes opened from disk for a pin recovered at restart)
// plus a knowledge graph rebuilt from the view's triples.
type PinnedSnapshot struct {
	cfg   IndexerConfig
	view  *datalake.View
	trust map[string]float64 // pipeline trust overrides at pin time

	frozen *FrozenIndexes // in-memory capture (pin path); nil when disk-backed
	dir    string         // persisted index directory (recovery path)

	once   sync.Once
	matErr error
	bm25   map[datalake.Kind]*invindex.Index
	vec    map[datalake.Kind]*vecindex.SQFlat
	graph  *kg.Graph
	priors map[string]float64 // view source trust priors
}

// Trust returns the trust overrides captured at pin time (shared map;
// callers must not mutate) — the durable layer persists it alongside the
// indexes so a recovered pin re-verifies identically.
func (ps *PinnedSnapshot) Trust() map[string]float64 { return ps.trust }

// materialize makes the snapshot searchable exactly once: a live
// capture's sealed BM25 segments and vector rows are wrapped in place
// (nothing is copied — they are the bytes the live indexes searched at the
// fork, on the heap or in the checkpoint's mapped files), a recovered
// pin's index files are opened, and the view's triple list is rebuilt
// into a graph for entity resolution.
func (ps *PinnedSnapshot) materialize() error {
	ps.once.Do(func() { ps.matErr = ps.doMaterialize() })
	return ps.matErr
}

func (ps *PinnedSnapshot) doMaterialize() error {
	ps.graph = kg.NewGraph()
	for _, t := range ps.view.Triples() {
		ps.graph.Add(t)
	}
	ps.priors = make(map[string]float64, len(ps.view.Sources()))
	for _, s := range ps.view.Sources() {
		ps.priors[s.ID] = s.TrustPrior
	}
	if ps.frozen == nil {
		var err error
		ps.bm25, ps.vec, err = openIndexes(ps.cfg, ps.dir)
		return err
	}
	ps.bm25 = make(map[datalake.Kind]*invindex.Index, len(ps.frozen.bm25))
	ps.vec = make(map[datalake.Kind]*vecindex.SQFlat, len(ps.frozen.vec))
	for kind, f := range ps.frozen.bm25 {
		ps.bm25[kind] = f.Index()
	}
	for kind, f := range ps.frozen.vec {
		ps.vec[kind] = f.Thaw()
	}
	return nil
}

// sourceTrust is the pinned counterpart of Pipeline.SourceTrust: the trust
// overrides captured at pin time, then the view's source priors, then 0.5.
// Later SetSourceTrust calls cannot reach a pinned verdict — that is the
// reproducibility contract.
func (ps *PinnedSnapshot) sourceTrust(sourceID string) float64 {
	if t, ok := ps.trust[sourceID]; ok {
		return t
	}
	if prior, ok := ps.priors[sourceID]; ok {
		return prior
	}
	return 0.5
}

// source adapts the snapshot into the pipeline's evidence-source seam:
// retrieval fans out over the thawed indexes through the indexer's shared
// worker pool, resolution reads the immutable view, trust reads the
// pinned copy. materialize must have succeeded first.
func (ps *PinnedSnapshot) source(ix *Indexer) evidenceSource {
	return evidenceSource{
		retrieve: func(ctx context.Context, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit {
			return ix.searchIndexes(ctx, query, k, kinds, true, ps.cfg.EnableVector, ps.bm25, ps.vec)
		},
		resolve: func(id string) (datalake.Instance, error) { return ps.view.Resolve(id, ps.graph) },
		trust:   ps.sourceTrust,
	}
}

// Snapshots returns the pipeline's snapshot registry (never nil).
func (p *Pipeline) Snapshots() *datalake.SnapshotRegistry { return p.snapshots }

// trustSnapshot copies the live trust overrides for a pin.
func (p *Pipeline) trustSnapshot() map[string]float64 {
	p.trustMu.RLock()
	defer p.trustMu.RUnlock()
	out := make(map[string]float64, len(p.trust))
	for k, v := range p.trust {
		out[k] = v
	}
	return out
}

// TakeSnapshot quiesces the lake just long enough to fork a View and
// freeze every index at the current version, then registers the
// pair as a retained snapshot (explicitly pinned when pinned is true —
// excluded from retention GC until unpinned). Registering an
// already-retained version promotes it instead of re-freezing.
func (p *Pipeline) TakeSnapshot(pinned bool) (*datalake.Snapshot, error) {
	if s, err := p.snapshots.Acquire(p.lake.Version()); err == nil {
		// Already retained at head: promote, don't re-freeze.
		if s.Version() == p.lake.Version() {
			defer s.Release()
			if pinned {
				if err := p.snapshots.Pin(s.Version()); err != nil {
					return nil, err
				}
			}
			return s, nil
		}
		s.Release()
	}
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.RegisterSnapshot(view, fz, pinned), nil
}

// PinSnapshot forks and freezes at the current version and retains the
// pair as an explicitly pinned snapshot, excluded from retention GC until
// unpinned. persist, when non-nil, is called after the in-memory pin is
// registered, with everything durability needs: the forked view, a
// writeIndexes that serializes the frozen indexes into a directory (under
// dir/indexes, the checkpoint layout), and the pin-time trust overrides. A
// persist failure demotes the pin back to the retention window and is
// returned — an operator asking for a durable pin must not silently get a
// memory-only one.
func (p *Pipeline) PinSnapshot(persist func(view *datalake.View, writeIndexes func(fs faultfs.FS, dir string) error, trust map[string]float64) error) (*datalake.Snapshot, error) {
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	trust := p.trustSnapshot()
	ps := &PinnedSnapshot{cfg: p.indexer.cfg, view: view, trust: trust, frozen: fz}
	snap := p.snapshots.Add(view, ps, true)
	if persist != nil {
		writeIndexes := func(fs faultfs.FS, dir string) error {
			return fz.Save(fs, filepath.Join(dir, "indexes"), view.Version())
		}
		if err := persist(view, writeIndexes, trust); err != nil {
			_ = p.snapshots.Unpin(view.Version())
			return nil, err
		}
	}
	return snap, nil
}

// RegisterSnapshot retains an already-forked View + frozen capture — the
// checkpoint path: durable checkpoints fork once, and the freeze callback
// hands the same pair here, so every checkpoint doubles as a time-travel
// snapshot at zero extra quiescence.
func (p *Pipeline) RegisterSnapshot(view *datalake.View, fz *FrozenIndexes, pinned bool) *datalake.Snapshot {
	ps := &PinnedSnapshot{cfg: p.indexer.cfg, view: view, trust: p.trustSnapshot(), frozen: fz}
	return p.snapshots.Add(view, ps, pinned)
}

// RegisterRecoveredSnapshot re-retains a persisted pin at restart: view
// was reloaded from the pin's serialized catalog, dir holds its index
// files (a FrozenIndexes.Save layout, opened lazily on the first pinned
// read), trust its pin-time overrides. The indexes' meta must match the
// current indexer configuration and the view's version exactly
// (ErrSnapshotMismatch otherwise — the caller drops the pin loudly rather
// than serving wrong pinned verdicts).
func (p *Pipeline) RegisterRecoveredSnapshot(view *datalake.View, dir string, trust map[string]float64) (*datalake.Snapshot, error) {
	meta, err := checkSnapshotMeta(p.indexer.cfg, dir)
	if err != nil {
		return nil, err
	}
	if meta.LakeVersion != view.Version() {
		return nil, fmt.Errorf("%w (pinned indexes at lake version %d, view at %d)", ErrSnapshotMismatch, meta.LakeVersion, view.Version())
	}
	if trust == nil {
		trust = make(map[string]float64)
	}
	ps := &PinnedSnapshot{cfg: p.indexer.cfg, view: view, trust: trust, dir: dir}
	return p.snapshots.Add(view, ps, true), nil
}

// VerifyAsOf is VerifyAsOfCtx with a background context.
func (p *Pipeline) VerifyAsOf(g verify.Generated, asOf uint64, kinds ...datalake.Kind) (Report, error) {
	return p.VerifyAsOfCtx(context.Background(), g, asOf, kinds...)
}

// VerifyAsOfCtx verifies g against the retained snapshot at version asOf
// instead of the live lake: retrieval runs over the snapshot's frozen
// indexes, evidence resolves from its immutable View, and trust reads the
// pin-time copy, so the Report — stamped with AsOfVersion — is
// reproducible no matter how many writes or trust overrides landed since.
// asOf 0 means head (plain VerifyCtx). A version below the retention
// floor returns datalake.BelowFloorError; one never retained returns
// datalake.ErrSnapshotNotFound. Pinned results cache under a pin-scoped
// key, so they never collide with head entries and survive head
// invalidation for as long as the snapshot is retained.
func (p *Pipeline) VerifyAsOfCtx(ctx context.Context, g verify.Generated, asOf uint64, kinds ...datalake.Kind) (Report, error) {
	if asOf == 0 {
		return p.VerifyCtx(ctx, g, kinds...)
	}
	snap, err := p.snapshots.Acquire(asOf)
	if err != nil {
		return Report{}, err
	}
	defer snap.Release()
	p.pinnedReads.Inc()
	ps, ok := snap.Payload().(*PinnedSnapshot)
	if !ok {
		return Report{}, fmt.Errorf("core: snapshot at version %d carries no pinned indexes", asOf)
	}
	kk := p.normalizeKinds(kinds)
	var key string
	if p.rcache != nil {
		key = pinnedCacheKey(g, kk, snap)
		if rep, ok := p.rcache.getPinned(key); ok {
			return rep, nil
		}
	}
	if err := ps.materialize(); err != nil {
		return Report{}, err
	}
	rep, err := p.verifyAgainst(ctx, g, p.cfg.VerifyWorkers, kk, ps.source(p.indexer), asOf)
	if err != nil {
		return rep, err
	}
	if p.rcache != nil {
		p.rcache.putPinned(key, rep)
	}
	return rep, nil
}

// pinnedCacheKey scopes a result-cache key to one snapshot identity. The
// suffix cannot collide with head keys (their tail is a comma-separated
// kind list) and the registry-unique snapshot ID keeps entries from one
// pin generation from leaking into a later re-pin of the same version.
func pinnedCacheKey(g verify.Generated, kinds []datalake.Kind, snap *datalake.Snapshot) string {
	return cacheKey(g, kinds) + "|pin:" + strconv.FormatUint(snap.Version(), 10) + "." + strconv.FormatUint(snap.ID(), 10)
}
