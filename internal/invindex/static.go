package invindex

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/binfmt"
)

// staticSeg is one set of column views over a sealed segment's container
// — the heap buffer Freeze built it in, or the mapping of the file that
// holds it (a Frozen switches from the first to the second, see Adopt).
// Documents and postings in a segment are never rewritten — deletions are
// tracked in the owning Index's baseDeleted bitmap, and new documents land
// in the mutable delta tier. Ordinals [0, n) are base documents; the
// delta's ordinals follow at n.
//
// Column layout (see staticColumns):
//
//	meta     JSON: k1/b, doc/term/pair counts, total length
//	ids      string column, ordinal -> external ID (insertion order)
//	lengths  int32[n] token counts
//	idsort   uint32[n] ordinals sorted by ID, for binary-search lookups
//	terms    string column, sorted distinct terms
//	postidx  uint32[t+1] pair-range starts per term
//	postings int32[2p] interleaved (doc, freq) pairs
type staticSeg struct {
	r *binfmt.Reader // pins the mapping for as long as the segment lives

	k1, b    float64
	n        int // document count
	totalLen int64

	ids     binfmt.StringCol
	lengths []int32
	idsort  []uint32
	terms   binfmt.StringCol
	postIdx []uint32
	posts   []int32
}

// staticMeta is the JSON "meta" section of a BM25 snapshot.
type staticMeta struct {
	Family   string  `json:"family"`
	K1       float64 `json:"k1"`
	B        float64 `json:"b"`
	Docs     int     `json:"docs"`
	Terms    int     `json:"terms"`
	Pairs    int     `json:"pairs"`
	TotalLen int64   `json:"total_len"`
}

// loadStatic validates a binfmt container as a BM25 snapshot and wraps it
// as a base segment. Validation is exhaustive — the container's CRCs
// guarantee the bytes match what the writer produced, and this pass
// guarantees the columns are structurally sound, so a corrupt or
// hand-crafted file fails loudly at open rather than corrupting a search.
func loadStatic(r *binfmt.Reader) (*staticSeg, error) {
	var meta staticMeta
	if err := r.JSON("meta", &meta); err != nil {
		return nil, err
	}
	if meta.Family != "bm25" {
		return nil, fmt.Errorf("invindex: snapshot family %q, want %q", meta.Family, "bm25")
	}
	if meta.Docs < 0 || meta.Terms < 0 || meta.Pairs < 0 {
		return nil, fmt.Errorf("invindex: snapshot has negative counts (docs=%d terms=%d pairs=%d)", meta.Docs, meta.Terms, meta.Pairs)
	}
	if math.IsNaN(meta.K1) || math.IsInf(meta.K1, 0) || math.IsNaN(meta.B) || math.IsInf(meta.B, 0) {
		return nil, fmt.Errorf("invindex: snapshot has non-finite BM25 parameters")
	}
	s := &staticSeg{r: r, k1: meta.K1, b: meta.B, n: meta.Docs}
	var err error
	if s.ids, err = r.Strings("ids"); err != nil {
		return nil, err
	}
	if s.lengths, err = r.Int32s("lengths"); err != nil {
		return nil, err
	}
	if s.idsort, err = r.Uint32s("idsort"); err != nil {
		return nil, err
	}
	if s.terms, err = r.Strings("terms"); err != nil {
		return nil, err
	}
	if s.postIdx, err = r.Uint32s("postidx"); err != nil {
		return nil, err
	}
	if s.posts, err = r.Int32s("postings"); err != nil {
		return nil, err
	}
	if s.ids.Len() != meta.Docs || len(s.lengths) != meta.Docs || len(s.idsort) != meta.Docs {
		return nil, fmt.Errorf("invindex: snapshot document columns disagree (ids=%d lengths=%d idsort=%d docs=%d)",
			s.ids.Len(), len(s.lengths), len(s.idsort), meta.Docs)
	}
	if s.terms.Len() != meta.Terms || len(s.postIdx) != meta.Terms+1 {
		return nil, fmt.Errorf("invindex: snapshot term columns disagree (terms=%d postidx=%d)", s.terms.Len(), len(s.postIdx))
	}
	if len(s.posts) != 2*meta.Pairs {
		return nil, fmt.Errorf("invindex: snapshot postings length %d, want %d pairs", len(s.posts), meta.Pairs)
	}
	if meta.Terms > 0 && meta.Terms+1 != len(s.postIdx) {
		return nil, fmt.Errorf("invindex: snapshot postidx length %d", len(s.postIdx))
	}
	// idsort must order ids strictly (which also proves it a permutation:
	// n in-range values with pairwise-distinct targets).
	for i, ord := range s.idsort {
		if int(ord) >= meta.Docs {
			return nil, fmt.Errorf("invindex: snapshot idsort[%d]=%d out of range", i, ord)
		}
		if i > 0 && bytes.Compare(s.ids.Bytes(int(s.idsort[i-1])), s.ids.Bytes(int(ord))) >= 0 {
			return nil, fmt.Errorf("invindex: snapshot idsort not strictly increasing at %d", i)
		}
	}
	// Terms must be sorted strictly for binary search.
	for i := 1; i < meta.Terms; i++ {
		if bytes.Compare(s.terms.Bytes(i-1), s.terms.Bytes(i)) >= 0 {
			return nil, fmt.Errorf("invindex: snapshot terms not strictly increasing at %d", i)
		}
	}
	if meta.Terms >= 0 {
		if len(s.postIdx) > 0 && s.postIdx[0] != 0 {
			return nil, fmt.Errorf("invindex: snapshot postidx does not start at 0")
		}
		for i := 1; i < len(s.postIdx); i++ {
			if s.postIdx[i] < s.postIdx[i-1] || int(s.postIdx[i]) > meta.Pairs {
				return nil, fmt.Errorf("invindex: snapshot postidx not monotonic at %d", i)
			}
		}
		if len(s.postIdx) > 0 && int(s.postIdx[len(s.postIdx)-1]) != meta.Pairs {
			return nil, fmt.Errorf("invindex: snapshot postidx ends at %d, want %d", s.postIdx[len(s.postIdx)-1], meta.Pairs)
		}
	}
	var totalLen int64
	for i, l := range s.lengths {
		if l < 0 {
			return nil, fmt.Errorf("invindex: snapshot document %d has negative length", i)
		}
		totalLen += int64(l)
	}
	if totalLen != meta.TotalLen {
		return nil, fmt.Errorf("invindex: snapshot total length %d, meta says %d", totalLen, meta.TotalLen)
	}
	s.totalLen = totalLen
	for i := 0; i+1 < len(s.posts); i += 2 {
		if d := s.posts[i]; d < 0 || int(d) >= meta.Docs {
			return nil, fmt.Errorf("invindex: snapshot posting pair %d references unknown doc %d", i/2, d)
		}
		if f := s.posts[i+1]; f <= 0 {
			return nil, fmt.Errorf("invindex: snapshot posting pair %d has non-positive frequency %d", i/2, f)
		}
	}
	return s, nil
}

// findDoc returns the base ordinal of id, or -1. Allocation-free.
func (s *staticSeg) findDoc(id string) int32 {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareBytesString(s.ids.Bytes(int(s.idsort[mid])), id) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.n {
		ord := int32(s.idsort[lo])
		if compareBytesString(s.ids.Bytes(int(ord)), id) == 0 {
			return ord
		}
	}
	return -1
}

// findTerm returns the term index of t, or -1. Allocation-free: the
// comparison walks the term blob directly.
func (s *staticSeg) findTerm(t string) int {
	lo, hi := 0, s.terms.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareBytesString(s.terms.Bytes(mid), t) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.terms.Len() && compareBytesString(s.terms.Bytes(lo), t) == 0 {
		return lo
	}
	return -1
}

// pairs returns term ti's interleaved (doc, freq) pairs.
func (s *staticSeg) pairs(ti int) []int32 {
	return s.posts[2*s.postIdx[ti] : 2*s.postIdx[ti+1]]
}

// compareBytesString is bytes.Compare(a, []byte(b)) without the
// conversion allocation.
func compareBytesString(a []byte, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
