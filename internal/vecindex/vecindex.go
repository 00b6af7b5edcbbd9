// Package vecindex implements the semantic-based index of VerifAI's Indexer
// module: similarity search over dense vectors. It stands in for Meta Faiss
// in the paper's architecture. Every index ranks by cosine similarity.
//
// SQFlat is the index the server runs: an exhaustive cosine scan over int8
// rows, 132 bytes for a 128-dimension vector where float32 takes 512. A
// shard has one immutable form, the sealed segment (a binfmt container
// outside the Go heap, binary.go): what Seal, Freeze and Derive build,
// the scan reads and a retained snapshot shares through Fork. No file
// holds one. Mutable are a heap tail of rows added since the last seal
// and a tombstone bitmap per segment (quant.go); Seal merges segments by
// the one policy of the lake's segment lists, seglist.Merge.
//
// Flat is the float32 exact scan the int8 scan's recall is measured
// against (AblateQuantization and the recall tests); it is append-only and
// not persisted.
package vecindex

import (
	"fmt"
	"sync"

	"repro/internal/embed"
	"repro/internal/seglist"
)

// Hit is one search result; a higher Score is a closer match.
type Hit = seglist.Hit

// Flat is an exact (brute-force) index over float32 rows, the reference
// SQFlat's recall is measured against. It is safe for concurrent Add and
// Search.
type Flat struct {
	dim  int
	mu   sync.RWMutex
	ids  []string
	vecs []embed.Vector
	byID map[string]struct{}
}

// NewFlat returns an empty exact index of dimension dim.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	return &Flat{dim: dim, byID: make(map[string]struct{})}
}

// Add indexes v under id. The vector is copied. Duplicate IDs and dimension
// mismatches are errors.
func (f *Flat) Add(id string, v embed.Vector) error {
	if len(v) != f.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), f.dim)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byID[id]; dup {
		return fmt.Errorf("vecindex: duplicate id %q", id)
	}
	f.byID[id] = struct{}{}
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, embed.Clone(v))
	return nil
}

// Search returns the top-k vectors by exact cosine similarity to q, best
// first, ties broken by ascending ID.
func (f *Flat) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var t seglist.TopK
	t.IDs.Reset(0, f.ids)
	t.Reset(k, len(f.ids))
	for i, v := range f.vecs {
		t.Offer(int32(i), embed.Cosine(q, v))
	}
	return t.Hits()
}
