package vecindex

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/embed"
)

// LSH is a random-hyperplane locality-sensitive hash index for cosine
// similarity (Charikar's SimHash family, as in Faiss IndexLSH). Built once
// over a fixed set of rows, it hashes each into ntables independent
// signature tables of nbits bits each; Search unions the query's buckets
// and ranks the candidates exactly. It is immutable and safe for
// concurrent Search.
type LSH struct {
	planes [][]embed.Vector // table -> bit -> hyperplane normal
	tables []map[uint64][]int32
	ids    idList
	vecs   []embed.Vector
}

// NewLSH hashes vecs, indexed under ids, into ntables tables of nbits each;
// seed draws the hyperplanes. The index keeps ids and vecs without copying;
// callers must not modify them. nbits must be in (0, 64]. Panics on invalid
// parameters, or when ids and vecs do not pair up or the vectors differ in
// dimension.
func NewLSH(ids []string, vecs []embed.Vector, nbits, ntables int, seed uint64) *LSH {
	if nbits <= 0 || nbits > 64 || ntables <= 0 {
		panic("vecindex: invalid LSH parameters")
	}
	dim := rowDim(ids, vecs)
	ix := &LSH{
		planes: make([][]embed.Vector, ntables),
		tables: make([]map[uint64][]int32, ntables),
		ids:    ids,
		vecs:   vecs,
	}
	for t := range ix.planes {
		ix.planes[t] = make([]embed.Vector, nbits)
		for b := range ix.planes[t] {
			r := detrand.New(seed, "lsh", fmt.Sprintf("%d:%d", t, b))
			p := make(embed.Vector, dim)
			for i := range p {
				p[i] = float32(r.NormFloat64())
			}
			ix.planes[t][b] = p
		}
		ix.tables[t] = make(map[uint64][]int32)
		for ord, v := range vecs {
			sig := ix.signature(t, v)
			ix.tables[t][sig] = append(ix.tables[t][sig], int32(ord))
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

// Len returns the number of indexed vectors.
func (ix *LSH) Len() int { return len(ix.ids) }

// Search implements Searcher: union the query's buckets across tables, then
// rank the candidate set by exact cosine similarity.
func (ix *LSH) Search(q embed.Vector, k int) []Hit {
	if k <= 0 || len(ix.ids) == 0 { // no rows: the hyperplanes have no dimension
		return nil
	}
	seen := make(map[int32]struct{})
	h := newTopK(k, &ix.ids, len(ix.ids))
	for t := range ix.tables {
		for _, ord := range ix.tables[t][ix.signature(t, q)] {
			if _, dup := seen[ord]; dup {
				continue
			}
			seen[ord] = struct{}{}
			h.offer(ord, embed.Cosine(q, ix.vecs[ord]))
		}
	}
	return h.results()
}
