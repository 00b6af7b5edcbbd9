// Package vecindex implements the semantic-based index of VerifAI's Indexer
// module: similarity search over dense vectors. It stands in for Meta Faiss
// in the paper's architecture.
//
// SQFlat is the index the server runs: an exhaustive cosine scan over int8
// rows, 132 bytes for a 128-dimension vector where float32 takes 512. A
// shard has one immutable form, the sealed segment (a binfmt container,
// binary.go): what Freeze produces, the scan reads, a retained snapshot
// searches, Save writes and OpenSQFile or Adopt maps. Mutable are a heap
// tail of rows added since the last seal and a tombstone bitmap (quant.go).
//
// Flat is the float32 reference the int8 scan's recall is measured against;
// it is not persisted. IVF (k-means cells) and LSH (random hyperplanes) are
// the approximate families the experiments compare; they keep float32 rows.
package vecindex

import (
	"fmt"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// Metric selects the similarity used for ranking.
type Metric int

const (
	// Cosine ranks by cosine similarity (higher is better).
	Cosine Metric = iota
	// InnerProduct ranks by dot product (higher is better).
	InnerProduct
	// L2 ranks by Euclidean distance (lower is better; Hit.Score is the
	// negated squared distance so that higher Score is always better).
	L2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case InnerProduct:
		return "inner-product"
	case L2:
		return "l2"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Hit is one search result. Score is oriented so that higher is better
// regardless of metric.
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

// Index is the surface every persisted index family offers beyond search:
// live writes and two-phase persistence (Freeze under the index lock, then
// Frozen.Save and Frozen.Adopt off it). Frozen.Thaw returns one.
type Index interface {
	Searcher
	Add(id string, v embed.Vector) error
	Remove(id string) bool
	Freeze() Frozen
	Residency() (heap, mapped int64, heapRows int)
}

// compactThreshold is the minimum tombstone count before an index compacts
// itself. Removal compacts once tombstones both exceed this floor and
// outnumber live entries, so sustained churn (e.g. entity re-indexing under
// live KG ingestion) keeps memory and scan cost within 2× of the live set
// at amortized O(1) per removal.
const compactThreshold = 64

// store is the id/vector bookkeeping shared by all index types: append-only
// arrays with tombstoned removal and threshold-triggered compaction. It
// holds the lock the embedding index takes; the *Locked methods assume it
// is held.
type store struct {
	mu      sync.RWMutex
	ids     []string
	vecs    []embed.Vector
	deleted []bool
	live    int
	byID    map[string]int
	// pin is the snapshot container rows loaded from it (binary.go) or
	// re-pointed at it by Adopt are zero-copy views of, blob its vector
	// section; holding pin keeps the mapping alive. Rows added since are on
	// the heap. Both nil for an index never saved.
	pin  *binfmt.Reader
	blob []float32
	// viewing counts the live rows that are views of blob.
	viewing int
}

func newStore() store { return store{byID: make(map[string]int)} }

// newTopK returns an empty top-k heap over the store's ordinals; a k
// beyond the live rows is clamped, so the heap never outgrows the scan.
func (s *store) newTopK(k int) topK {
	return topK{k: k, ids: s, h: make([]scored, 0, min(k, s.live))}
}

// addLocked appends v (copied) under id and returns its ordinal. Duplicate
// live IDs are errors; a removed id may be added again under a new ordinal.
func (s *store) addLocked(id string, v embed.Vector) (int, error) {
	if ord, dup := s.byID[id]; dup && !s.deleted[ord] {
		return 0, fmt.Errorf("vecindex: duplicate id %q", id)
	}
	ord := len(s.ids)
	s.byID[id] = ord
	s.ids = append(s.ids, id)
	s.vecs = append(s.vecs, embed.Clone(v))
	s.deleted = append(s.deleted, false)
	s.live++
	return ord, nil
}

// liveRows captures the live IDs and vectors by reference, in ordinal
// order with tombstones compacted away. Caller holds the read lock.
func (s *store) liveRows() rows {
	r := rows{IDs: make([]string, 0, s.live), Vecs: make([]embed.Vector, 0, s.live)}
	for ord, v := range s.vecs {
		if !s.deleted[ord] {
			r.IDs = append(r.IDs, s.ids[ord])
			r.Vecs = append(r.Vecs, v)
		}
	}
	return r
}

// removeLocked tombstones id, reporting whether it was live and whether the
// tombstone count now warrants compaction.
func (s *store) removeLocked(id string) (removed, compactDue bool) {
	ord, ok := s.byID[id]
	if !ok || s.deleted[ord] {
		return false, false
	}
	s.deleted[ord] = true
	s.live--
	if s.inBlob(s.vecs[ord]) {
		s.viewing--
	}
	dead := len(s.ids) - s.live
	return true, dead > s.live && dead >= compactThreshold
}

// compactLocked rebuilds the arrays without tombstones and returns the
// old→new ordinal remapping (-1 for dropped entries) so the embedding index
// can fix its ordinal references (IVF cells, LSH buckets).
func (s *store) compactLocked() []int {
	remap := make([]int, len(s.ids))
	ids := make([]string, 0, s.live)
	vecs := make([]embed.Vector, 0, s.live)
	byID := make(map[string]int, s.live)
	for i, id := range s.ids {
		if s.deleted[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(ids)
		byID[id] = len(ids)
		ids = append(ids, id)
		vecs = append(vecs, s.vecs[i])
	}
	s.ids, s.vecs, s.byID = ids, vecs, byID
	s.deleted = make([]bool, len(ids))
	return remap
}

// score computes the metric-oriented score of q against v.
func score(m Metric, q, v embed.Vector) float64 {
	switch m {
	case Cosine:
		return embed.Cosine(q, v)
	case InnerProduct:
		return embed.Dot(q, v)
	case L2:
		return -embed.L2Sq(q, v)
	default:
		panic("vecindex: unknown metric")
	}
}

// Flat is an exact (brute-force) index, the ground-truth baseline the ANN
// indexes are measured against. It is safe for concurrent Add, Remove, and
// Search; removal tombstones the vector (skipped by searches) and the id
// may be re-added afterwards, matching the live-lake ingest pattern.
type Flat struct {
	metric Metric
	dim    int
	store
}

// NewFlat returns an empty exact index of dimension dim.
func NewFlat(dim int, metric Metric) *Flat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	return &Flat{metric: metric, dim: dim, store: newStore()}
}

// Add indexes v under id. The vector is copied. Duplicate live IDs and
// dimension mismatches are errors; a removed id may be added again.
func (f *Flat) Add(id string, v embed.Vector) error {
	if len(v) != f.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), f.dim)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.addLocked(id, v)
	return err
}

// Remove tombstones id's vector, compacting the index once tombstones
// dominate. Removing an unknown or already-removed id is a no-op returning
// false.
func (f *Flat) Remove(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	removed, compactDue := f.removeLocked(id)
	if compactDue {
		f.compactLocked()
	}
	return removed
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
	h := f.newTopK(k)
	for i, v := range f.vecs {
		if f.deleted[i] {
			continue
		}
		h.offer(int32(i), score(f.metric, q, v))
	}
	return h.results()
}

// ordIDs resolves the ordinals a search scored to external IDs.
type ordIDs interface {
	// idView returns ord's ID without copying, for tie-breaks: valid for as
	// long as the search keeps the rows it scored alive.
	idView(ord int32) string
	// id returns ord's ID as a string of its own, for the hits returned.
	id(ord int32) string
}

func (s *store) idView(ord int32) string { return s.ids[ord] }
func (s *store) id(ord int32) string     { return s.ids[ord] }

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

// worse reports whether a ranks strictly below b: lower score, or equal
// score and the larger ID.
func (t *topK) worse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return t.ids.idView(a.ord) > t.ids.idView(b.ord)
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
