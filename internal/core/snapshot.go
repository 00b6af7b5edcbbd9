package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/vecindex"
	"repro/internal/verify"
)

// Time-travel reads. A checkpoint's fork already pins everything a
// reproducible verdict needs: an immutable catalog View at one version.
// This file makes that View a retained, queryable snapshot: the pipeline
// registers the (View, trust copy) pair — plus, for an explicit pin, a
// frozen capture of every index — with a datalake.SnapshotRegistry, and
// VerifyAsOfCtx runs the full retrieve→rerank→verify flow against it, so a
// verdict computed at version v recomputes identically long after the
// lake (and the operator's trust overrides) have moved on.

// PinnedSnapshot is the payload the pipeline hangs on a datalake.Snapshot:
// the trust overrides in force at registration, the frozen indexes of an
// explicit pin, and — lazily, on first read — searchable indexes (wrapped
// around the frozen capture, opened from disk for a pin recovered at
// restart, or re-indexed from the view) plus a knowledge graph rebuilt
// from the view's triples.
type PinnedSnapshot struct {
	view  *datalake.View
	trust map[string]float64 // pipeline trust overrides at pin time

	// mu guards frozen until the first read has materialized the snapshot.
	mu   sync.Mutex
	done bool // materialize has run; matErr is its outcome

	frozen *FrozenIndexes // in-memory capture (pin path); nil for a checkpoint's or a disk-backed snapshot
	// dir is the persisted index directory (recovery path); empty when its
	// files are in another snapshot format and the view is re-indexed.
	dir string

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

// materialize makes the snapshot searchable exactly once: a pin's sealed
// BM25 segments are wrapped in place and its vector forks searched as they
// are (nothing is copied — they are the segments the live indexes
// searched at the fork), a recovered pin's BM25 files are opened, its
// table kind's BM25 index summed from the view's tables and its tuples,
// and ix derives its vector indexes, and a snapshot with neither — a
// checkpoint's, or a recovered pin written in another snapshot format —
// re-indexes its view, seals what it built, and hands rebuilt the time
// that took. The view's graph resolves entities.
func (ps *PinnedSnapshot) materialize(ix *Indexer, rebuilt func(time.Duration)) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.done {
		ps.done = true
		ps.matErr = ps.doMaterialize(ix, rebuilt)
	}
	return ps.matErr
}

// adopt hands a fresh capture at the snapshot's version to a snapshot
// that holds no indexes and has not been read yet, so its first read
// wraps the capture instead of re-indexing the view.
func (ps *PinnedSnapshot) adopt(fz *FrozenIndexes) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.done && ps.frozen == nil && ps.dir == "" {
		ps.frozen = fz
	}
}

func (ps *PinnedSnapshot) doMaterialize(ix *Indexer, rebuilt func(time.Duration)) error {
	ps.graph = ps.view.Graph()
	ps.priors = make(map[string]float64, len(ps.view.Sources()))
	for _, s := range ps.view.Sources() {
		ps.priors[s.ID] = s.TrustPrior
	}
	switch {
	case ps.frozen == nil && ps.dir == "":
		start, cfg := time.Now(), ix.cfg
		reindexed := newIndexer(nil, &cfg)
		if err := reindexed.ingest(ps.view, ps.graph); err != nil {
			return err
		}
		// Sealed, the indexes sit off the Go heap, in about a third of the
		// memory their deltas take.
		reindexed.Seal()
		ps.bm25, ps.vec = reindexed.bm25, reindexed.vec
		rebuilt(time.Since(start))
		return nil
	case ps.frozen == nil:
		var err error
		ps.bm25, ps.vec, err = ix.openIndexes(ps.dir, ps.view.TableIDs(), func(ids []string, fn func([]datalake.Instance) error) error {
			return ps.view.ResolveBorrowed(ids, ps.graph, fn)
		})
		return err
	}
	ps.bm25 = make(map[datalake.Kind]*invindex.Index, len(ps.frozen.bm25))
	for kind, f := range ps.frozen.bm25 {
		ps.bm25[kind] = f.Index()
	}
	ps.vec = ps.frozen.vec
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
// retrieval searches the thawed indexes as the indexer's head retrieval
// does, resolution reads the immutable view, trust reads the pinned copy.
// materialize must have succeeded first.
func (ps *PinnedSnapshot) source(ix *Indexer) evidenceSource {
	return evidenceSource{
		retrieve: func(ctx context.Context, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit {
			return ix.searchIndexes(ctx, query, k, kinds, true, true, ps.bm25, ps.vec)
		},
		borrow: func(ids []string, fn func([]datalake.Instance) error) error {
			return ps.view.ResolveBorrowed(ids, ps.graph, fn)
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

// PinSnapshot forks and freezes at the current version and retains the
// pair as an explicitly pinned snapshot, excluded from retention GC until
// unpinned. A version that is already retained (a checkpoint's snapshot,
// or an earlier pin) keeps its snapshot, trust overrides included, and the
// pin promotes it; a checkpoint's snapshot, which holds no indexes, takes
// this pin's capture, so its first pinned read wraps the capture instead
// of re-indexing the view. persist, when non-nil, is called
// after the in-memory pin is registered, with everything durability needs:
// the forked view, a writeIndexes that serializes the frozen indexes into
// a directory (under dir/indexes, the checkpoint layout), and the trust
// overrides of the snapshot the registry retains. A persist failure demotes
// the pin back to the retention window and is returned — an operator
// asking for a durable pin must not silently get a memory-only one.
func (p *Pipeline) PinSnapshot(persist func(view *datalake.View, writeIndexes func(fs faultfs.FS, dir string) error, trust map[string]float64) error) (*datalake.Snapshot, error) {
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := p.snapshots.Add(view, &PinnedSnapshot{view: view, trust: p.trustSnapshot(), frozen: fz}, true)
	ps, ok := snap.Payload().(*PinnedSnapshot)
	if !ok {
		return nil, fmt.Errorf("core: snapshot at version %d collected while pinning", view.Version())
	}
	ps.adopt(fz)
	if persist != nil {
		writeIndexes := func(fs faultfs.FS, dir string) error {
			return fz.Save(fs, filepath.Join(dir, "indexes"), view.Version())
		}
		// The registry may have kept an earlier snapshot of this version:
		// persist the trust it serves, so a restart serves the same.
		if err := persist(view, writeIndexes, ps.trust); err != nil {
			_ = p.snapshots.Unpin(view.Version())
			return nil, err
		}
	}
	return snap, nil
}

// RegisterCheckpoint retains a checkpoint's forked View as an unpinned
// snapshot in the keep-last-N window, with the trust overrides in force
// now: every checkpoint doubles as a time-travel snapshot at zero extra
// quiescence. The checkpoint's index capture is not retained — held past
// the head's next merge, it would keep a second copy of every segment the
// merge replaced — so the first read at the snapshot re-indexes the view
// (verifai_snapshot_rebuild_seconds), unless a pin at the same version
// hands it a capture first.
func (p *Pipeline) RegisterCheckpoint(view *datalake.View) {
	p.snapshots.Add(view, &PinnedSnapshot{view: view, trust: p.trustSnapshot()}, false)
}

// RegisterRecoveredSnapshot re-retains a persisted pin at restart: view
// was reloaded from the pin's serialized catalog, dir holds its index
// files (a FrozenIndexes.Save layout, opened lazily on the first pinned
// read), trust its pin-time overrides. The indexes' meta must match the
// current indexer configuration and the view's version exactly
// (ErrSnapshotMismatch otherwise — the caller drops the pin loudly rather
// than serving wrong pinned verdicts), except that index files written in
// another snapshot format are derived data: the first pinned read
// re-indexes the view instead.
func (p *Pipeline) RegisterRecoveredSnapshot(view *datalake.View, dir string, trust map[string]float64) (*datalake.Snapshot, error) {
	meta, err := checkSnapshotMeta(p.indexer.cfg, dir)
	switch {
	case errors.Is(err, ErrStaleFormat):
		dir = ""
	case err != nil:
		return nil, err
	case meta.LakeVersion != view.Version():
		return nil, fmt.Errorf("%w (pinned indexes at lake version %d, view at %d)", ErrSnapshotMismatch, meta.LakeVersion, view.Version())
	}
	if trust == nil {
		trust = make(map[string]float64)
	}
	ps := &PinnedSnapshot{view: view, trust: trust, dir: dir}
	return p.snapshots.Add(view, ps, true), nil
}

// snapshotRebuilt counts one re-index of a snapshot's view that took d.
func (p *Pipeline) snapshotRebuilt(d time.Duration) {
	p.snapshotRebuilds.Add(1)
	p.snapshotRebuildSec.Observe(d.Seconds())
}

// SnapshotRebuilds returns how many snapshots a read has re-indexed from
// their views (checkpoints' snapshots, and recovered pins whose index
// files are in another snapshot format).
func (p *Pipeline) SnapshotRebuilds() uint64 { return p.snapshotRebuilds.Load() }

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
	if err := ps.materialize(p.indexer, p.snapshotRebuilt); err != nil {
		return Report{}, err
	}
	kk, src := p.normalizeKinds(kinds), ps.source(p.indexer)
	run := func() (Report, error) { return p.verifyAgainst(ctx, g, kk, src, asOf) }
	if p.rcache == nil {
		return run()
	}
	return p.cached(pinnedCacheKey(g, kk, snap), g, kk, src.resolve, run)
}

// pinnedCacheKey scopes a result-cache key to one snapshot identity. The
// suffix cannot collide with head keys (their tail is a comma-separated
// kind list) and the registry-unique snapshot ID keeps entries from one
// pin generation from leaking into a later re-pin of the same version.
func pinnedCacheKey(g verify.Generated, kinds []datalake.Kind, snap *datalake.Snapshot) string {
	return cacheKey(g, kinds) + "|pin:" + strconv.FormatUint(snap.Version(), 10) + "." + strconv.FormatUint(snap.ID(), 10)
}
