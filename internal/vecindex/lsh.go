package vecindex

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/embed"
)

// LSH is a random-hyperplane locality-sensitive hash index for cosine
// similarity (Charikar's SimHash family, as in Faiss IndexLSH). Vectors are
// hashed into ntables independent signature tables of nbits bits each;
// Search unions the query's buckets and ranks candidates exactly.
//
// The index is safe for concurrent Add, Remove, and Search; removal
// tombstones the vector (its bucket entries are skipped at search time) and
// the id may be re-added afterwards.
type LSH struct {
	dim     int
	nbits   int
	ntables int
	// seed is kept so a snapshot can reconstruct the identical hyperplane
	// family (see persist.go).
	seed uint64

	planes [][]embed.Vector // table -> bit -> hyperplane normal
	tables []map[uint64][]int
	store
}

// NewLSH returns an LSH index with ntables hash tables of nbits each.
// nbits must be in (0, 64].
func NewLSH(dim, nbits, ntables int, seed uint64) *LSH {
	if dim <= 0 || nbits <= 0 || nbits > 64 || ntables <= 0 {
		panic("vecindex: invalid LSH parameters")
	}
	ix := &LSH{
		dim: dim, nbits: nbits, ntables: ntables, seed: seed,
		planes: make([][]embed.Vector, ntables),
		tables: make([]map[uint64][]int, ntables),
		store:  newStore(),
	}
	for t := 0; t < ntables; t++ {
		ix.tables[t] = make(map[uint64][]int)
		ix.planes[t] = make([]embed.Vector, nbits)
		for b := 0; b < nbits; b++ {
			r := detrand.New(seed, "lsh", fmt.Sprintf("%d:%d", t, b))
			p := make(embed.Vector, dim)
			for i := range p {
				p[i] = float32(r.NormFloat64())
			}
			ix.planes[t][b] = p
		}
	}
	return ix
}

// signature computes the nbits-bit hash of v in table t.
func (ix *LSH) signature(t int, v embed.Vector) uint64 {
	var sig uint64
	for b, p := range ix.planes[t] {
		if embed.Dot(p, v) >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Add indexes v under id. Duplicate live IDs are errors; a removed id may
// be added again.
func (ix *LSH) Add(id string, v embed.Vector) error {
	if len(v) != ix.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), ix.dim)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, err := ix.addLocked(id, v)
	if err != nil {
		return err
	}
	for t := 0; t < ix.ntables; t++ {
		sig := ix.signature(t, v)
		ix.tables[t][sig] = append(ix.tables[t][sig], ord)
	}
	return nil
}

// Remove tombstones id's vector. Removing an unknown or already-removed id
// is a no-op returning false. Bucket entries stay in place and are skipped
// at search time until tombstones dominate, at which point the index
// compacts (bucket ordinals are remapped; no re-hashing is needed).
func (ix *LSH) Remove(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removed, compactDue := ix.removeLocked(id)
	if compactDue {
		remap := ix.compactLocked()
		for t := range ix.tables {
			for sig, bucket := range ix.tables[t] {
				kept := bucket[:0]
				for _, ord := range bucket {
					if no := remap[ord]; no >= 0 {
						kept = append(kept, no)
					}
				}
				if len(kept) == 0 {
					delete(ix.tables[t], sig)
				} else {
					ix.tables[t][sig] = kept
				}
			}
		}
	}
	return removed
}

// Len returns the number of live indexed vectors.
func (ix *LSH) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live
}

// Search implements Searcher: union the query's buckets across tables, then
// rank the candidate set by exact cosine similarity.
func (ix *LSH) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[int]struct{})
	h := ix.newTopK(k)
	for t := 0; t < ix.ntables; t++ {
		sig := ix.signature(t, q)
		for _, ord := range ix.tables[t][sig] {
			if _, dup := seen[ord]; dup {
				continue
			}
			seen[ord] = struct{}{}
			if ix.deleted[ord] {
				continue
			}
			h.offer(int32(ord), embed.Cosine(q, ix.vecs[ord]))
		}
	}
	return h.results()
}
