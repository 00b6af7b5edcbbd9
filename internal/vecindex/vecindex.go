// Package vecindex implements the semantic-based index of VerifAI's Indexer
// module: similarity search over dense vectors. It stands in for Meta Faiss
// in the paper's architecture. Every index ranks by cosine similarity.
//
// SQFlat is the index the server runs: an exhaustive cosine scan over int8
// rows, 132 bytes for a 128-dimension vector where float32 takes 512. A
// shard has one immutable form, the sealed segment (a binfmt container
// outside the Go heap, binary.go): what Freeze produces and Derive builds,
// the scan reads and a retained snapshot searches. No file holds one.
// Mutable are a heap tail of rows added since the last seal and a
// tombstone bitmap (quant.go).
//
// Flat is the float32 exact scan the int8 scan's recall is measured
// against (AblateQuantization and the recall tests); it is append-only and
// not persisted.
package vecindex

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/embed"
)

// Hit is one search result; a higher Score is a closer match.
type Hit struct {
	ID    string
	Score float64
}

// Flat is an exact (brute-force) index over float32 rows, the reference
// SQFlat's recall is measured against. It is safe for concurrent Add and
// Search.
type Flat struct {
	dim  int
	mu   sync.RWMutex
	ids  idList
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
	h := newTopK(k, &f.ids, len(f.ids))
	for i, v := range f.vecs {
		h.offer(int32(i), embed.Cosine(q, v))
	}
	return h.results()
}

// ordIDs resolves the ordinals a search scored to external IDs.
type ordIDs interface {
	// cmp compares the IDs of two ordinals, for tie-breaks.
	cmp(a, b int32) int
	// id returns ord's ID as a string of its own, for the hits returned.
	id(ord int32) string
}

// idList is Flat's ordinal → ID column.
type idList []string

func (l *idList) cmp(a, b int32) int  { return strings.Compare((*l)[a], (*l)[b]) }
func (l *idList) id(ord int32) string { return (*l)[ord] }

// scored is one candidate inside the top-k heap.
type scored struct {
	ord   int32
	score float64
}

// topK keeps the k best candidates of a scan in a typed array min-heap,
// sifted by hand (container/heap would box every candidate), and resolves
// IDs only to break ties and for the k survivors.
type topK struct {
	k   int
	ids ordIDs
	h   []scored
}

// newTopK returns an empty top-k heap over n candidate rows; a k beyond
// them is clamped, so the heap never outgrows the scan.
func newTopK(k int, ids ordIDs, n int) topK {
	return topK{k: k, ids: ids, h: make([]scored, 0, min(k, n))}
}

// worse reports whether a ranks strictly below b: lower score, or equal
// score and the larger ID.
func (t *topK) worse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return t.ids.cmp(a.ord, b.ord) > 0
}

func (t *topK) offer(ord int32, score float64) {
	c := scored{ord: ord, score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !t.worse(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if !t.worse(t.h[0], c) {
		return
	}
	t.h[0] = c
	t.siftDown()
}

func (t *topK) siftDown() {
	h := t.h
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h) && t.worse(h[l], h[min]) {
			min = l
		}
		if r < len(h) && t.worse(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// results empties the heap into hits ordered best first, ties by ascending
// ID.
func (t *topK) results() []Hit {
	out := make([]Hit, len(t.h))
	for i := len(out) - 1; i >= 0; i-- {
		top := t.h[0]
		out[i] = Hit{ID: t.ids.id(top.ord), Score: top.score}
		t.h[0] = t.h[len(t.h)-1]
		t.h = t.h[:len(t.h)-1]
		t.siftDown()
	}
	return out
}
