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
// Flat is the float32 reference the int8 scan's recall is measured against;
// it is not persisted. IVF (k-means cells) and LSH (random hyperplanes) are
// the approximate indexes the experiments compare: each is built once over
// a fixed set of float32 rows and only searched afterwards.
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

// Searcher is the query interface shared by all index types.
type Searcher interface {
	// Search returns the top-k nearest vectors to q, best first, ties broken
	// by ascending ID.
	Search(q embed.Vector, k int) []Hit
	// Len returns the number of indexed vectors.
	Len() int
}

// compactThreshold is the minimum tombstone count before an index compacts
// itself. Removal compacts once tombstones both exceed this floor and
// outnumber live entries, so sustained churn (e.g. entity re-indexing under
// live KG ingestion) keeps memory and scan cost within 2× of the live set
// at amortized O(1) per removal.
const compactThreshold = 64

// Flat is an exact (brute-force) index, the ground-truth baseline the ANN
// indexes are measured against. It is safe for concurrent Add, Remove, and
// Search; removal tombstones the vector (skipped by searches) and the id
// may be re-added afterwards, matching the live-lake ingest pattern.
type Flat struct {
	dim     int
	mu      sync.RWMutex
	ids     idList
	vecs    []embed.Vector
	deleted []bool
	live    int
	byID    map[string]int
}

// NewFlat returns an empty exact index of dimension dim.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	return &Flat{dim: dim, byID: make(map[string]int)}
}

// Add indexes v under id. The vector is copied. Duplicate live IDs and
// dimension mismatches are errors; a removed id may be added again.
func (f *Flat) Add(id string, v embed.Vector) error {
	if len(v) != f.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), f.dim)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ord, dup := f.byID[id]; dup && !f.deleted[ord] {
		return fmt.Errorf("vecindex: duplicate id %q", id)
	}
	f.byID[id] = len(f.ids)
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, embed.Clone(v))
	f.deleted = append(f.deleted, false)
	f.live++
	return nil
}

// Remove tombstones id's vector, compacting the index once tombstones
// dominate. Removing an unknown or already-removed id is a no-op returning
// false.
func (f *Flat) Remove(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord, ok := f.byID[id]
	if !ok || f.deleted[ord] {
		return false
	}
	f.deleted[ord] = true
	f.live--
	if dead := len(f.ids) - f.live; dead > f.live && dead >= compactThreshold {
		f.compactLocked()
	}
	return true
}

// compactLocked rebuilds the arrays without tombstones.
func (f *Flat) compactLocked() {
	ids := make(idList, 0, f.live)
	vecs := make([]embed.Vector, 0, f.live)
	byID := make(map[string]int, f.live)
	for i, id := range f.ids {
		if !f.deleted[i] {
			byID[id] = len(ids)
			ids = append(ids, id)
			vecs = append(vecs, f.vecs[i])
		}
	}
	f.ids, f.vecs, f.byID = ids, vecs, byID
	f.deleted = make([]bool, len(ids))
}

// Len returns the number of live indexed vectors.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.live
}

// Search implements Searcher with an exact scan.
func (f *Flat) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	h := newTopK(k, &f.ids, f.live)
	for i, v := range f.vecs {
		if !f.deleted[i] {
			h.offer(int32(i), embed.Cosine(q, v))
		}
	}
	return h.results()
}

// rowDim returns the dimension of a build-once index's rows, panicking
// unless ids and vecs pair up and every vector shares one positive
// dimension.
func rowDim(ids []string, vecs []embed.Vector) int {
	if len(ids) != len(vecs) {
		panic(fmt.Sprintf("vecindex: %d ids for %d vectors", len(ids), len(vecs)))
	}
	if len(vecs) == 0 {
		return 0
	}
	dim := len(vecs[0])
	for i, v := range vecs {
		if len(v) != dim || dim == 0 {
			panic(fmt.Sprintf("vecindex: vector %q has dim %d, want %d", ids[i], len(v), dim))
		}
	}
	return dim
}

// ordIDs resolves the ordinals a search scored to external IDs.
type ordIDs interface {
	// cmp compares the IDs of two ordinals, for tie-breaks.
	cmp(a, b int32) int
	// id returns ord's ID as a string of its own, for the hits returned.
	id(ord int32) string
}

// idList is the ordinal → ID column of the float-row indexes.
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
