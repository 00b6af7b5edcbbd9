package vecindex

import (
	"fmt"
	"sort"

	"repro/internal/embed"
)

// IVF is an inverted-file index over k-means cells (Faiss IVF-Flat). Vectors
// are accumulated with Add and partitioned by Train; Search probes the
// nprobe cells whose centroids are closest to the query. Until Train is
// called, Search falls back to an exact scan, mirroring Faiss's requirement
// that IVF indexes be trained before efficient search.
//
// The index is safe for concurrent Add, Remove, Train, and Search. Vectors
// added after Train are assigned to their nearest trained cell, and removal
// tombstones the vector (skipped at probe time) so online ingestion never
// forces a retrain; retraining remains available to rebalance cells after
// heavy churn.
type IVF struct {
	metric Metric
	dim    int
	nlist  int
	nprobe int
	seed   uint64

	store

	trained   bool
	centroids []embed.Vector
	cells     [][]int // cell -> vector ordinals
}

// NewIVF returns an IVF index with nlist cells probing nprobe cells per
// query. Panics on non-positive parameters.
func NewIVF(dim int, metric Metric, nlist, nprobe int, seed uint64) *IVF {
	if dim <= 0 || nlist <= 0 || nprobe <= 0 {
		panic("vecindex: non-positive IVF parameter")
	}
	return &IVF{
		metric: metric, dim: dim, nlist: nlist, nprobe: nprobe, seed: seed,
		store: newStore(),
	}
}

// Add stages v under id. Adding after Train is allowed: the vector is
// assigned to its nearest existing cell. Duplicate live IDs are errors; a
// removed id may be added again.
func (ix *IVF) Add(id string, v embed.Vector) error {
	if len(v) != ix.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, err := ix.addLocked(id, v)
	if err != nil {
		return err
	}
	if ix.trained {
		ci := ix.nearestCell(v)
		ix.cells[ci] = append(ix.cells[ci], ord)
	}
	return nil
}

// Remove tombstones id's vector. Removing an unknown or already-removed id
// is a no-op returning false. The ordinal stays in its cell and is skipped
// at probe time until tombstones dominate, at which point the index
// compacts (cell lists are remapped in place; centroids are untouched, so
// no retrain is needed).
func (ix *IVF) Remove(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removed, compactDue := ix.removeLocked(id)
	if compactDue {
		remap := ix.compactLocked()
		for ci, cell := range ix.cells {
			kept := cell[:0]
			for _, ord := range cell {
				if no := remap[ord]; no >= 0 {
					kept = append(kept, no)
				}
			}
			ix.cells[ci] = kept
		}
	}
	return removed
}

// Train partitions the live vectors into nlist cells. It must be called
// after the bulk of Adds for efficient search; calling it again re-trains
// from scratch over all live vectors (rebalancing cells skewed by
// post-train Adds and dropping tombstones from the cell lists).
func (ix *IVF) Train() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.live == 0 {
		return
	}
	liveVecs := make([]embed.Vector, 0, ix.live)
	liveOrds := make([]int, 0, ix.live)
	for ord, v := range ix.vecs {
		if ix.deleted[ord] {
			continue
		}
		liveVecs = append(liveVecs, v)
		liveOrds = append(liveOrds, ord)
	}
	centroids, assign := kmeans(liveVecs, ix.nlist, ix.seed, 25)
	ix.centroids = centroids
	ix.cells = make([][]int, len(centroids))
	for i, ci := range assign {
		ix.cells[ci] = append(ix.cells[ci], liveOrds[i])
	}
	ix.trained = true
}

// Trained reports whether the index has been trained.
func (ix *IVF) Trained() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.trained
}

// Len returns the number of live indexed vectors.
func (ix *IVF) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live
}

// nearestCell returns the centroid index closest to v (L2). Caller holds a
// lock and the index is trained.
func (ix *IVF) nearestCell(v embed.Vector) int {
	best, bestD := 0, embed.L2Sq(v, ix.centroids[0])
	for ci := 1; ci < len(ix.centroids); ci++ {
		if d := embed.L2Sq(v, ix.centroids[ci]); d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// Search implements Searcher. Untrained indexes scan exactly.
func (ix *IVF) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	h := ix.newTopK(k)
	if !ix.trained {
		for i, v := range ix.vecs {
			if ix.deleted[i] {
				continue
			}
			h.offer(int32(i), score(ix.metric, q, v))
		}
		return h.results()
	}
	// Rank cells by centroid distance, probe the best nprobe.
	type cellDist struct {
		ci int
		d  float64
	}
	dists := make([]cellDist, len(ix.centroids))
	for ci, c := range ix.centroids {
		dists[ci] = cellDist{ci: ci, d: embed.L2Sq(q, c)}
	}
	sort.Slice(dists, func(i, j int) bool {
		if dists[i].d != dists[j].d {
			return dists[i].d < dists[j].d
		}
		return dists[i].ci < dists[j].ci
	})
	probe := ix.nprobe
	if probe > len(dists) {
		probe = len(dists)
	}
	for _, cd := range dists[:probe] {
		for _, ord := range ix.cells[cd.ci] {
			if ix.deleted[ord] {
				continue
			}
			h.offer(int32(ord), score(ix.metric, q, ix.vecs[ord]))
		}
	}
	return h.results()
}
