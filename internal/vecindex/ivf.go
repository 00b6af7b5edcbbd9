package vecindex

import (
	"sort"

	"repro/internal/embed"
)

// IVF is an inverted-file index over k-means cells (Faiss IVF-Flat): built
// once over a fixed set of rows, which it partitions into nlist cells, it
// answers a query by scanning the nprobe cells whose centroids are closest.
// It is immutable and safe for concurrent Search.
type IVF struct {
	nprobe    int
	ids       idList
	vecs      []embed.Vector
	centroids []embed.Vector
	cells     [][]int32 // cell -> row ordinals
}

// NewIVF trains an IVF index over vecs, indexed under ids, with nlist cells
// probing nprobe cells per query; seed drives the k-means seeding. The index
// keeps ids and vecs without copying; callers must not modify them. Panics
// on non-positive parameters, or when ids and vecs do not pair up or the
// vectors differ in dimension.
func NewIVF(ids []string, vecs []embed.Vector, nlist, nprobe int, seed uint64) *IVF {
	if nlist <= 0 || nprobe <= 0 {
		panic("vecindex: non-positive IVF parameter")
	}
	rowDim(ids, vecs)
	centroids, assign := kmeans(vecs, nlist, seed, 25)
	ix := &IVF{nprobe: nprobe, ids: ids, vecs: vecs, centroids: centroids, cells: make([][]int32, len(centroids))}
	for ord, ci := range assign {
		ix.cells[ci] = append(ix.cells[ci], int32(ord))
	}
	return ix
}

// Len returns the number of indexed vectors.
func (ix *IVF) Len() int { return len(ix.ids) }

// Search implements Searcher: rank the cells by centroid distance, then
// score every row of the best nprobe exactly.
func (ix *IVF) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
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
	h := newTopK(k, &ix.ids, len(ix.ids))
	for _, cd := range dists[:min(ix.nprobe, len(dists))] {
		for _, ord := range ix.cells[cd.ci] {
			h.offer(ord, embed.Cosine(q, ix.vecs[ord]))
		}
	}
	return h.results()
}
