package vecindex

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/binfmt"
)

// An SQFlat segment (family "flat-int8") is one binfmt container holding
// the rows as columns, all served as views of the container, nothing
// decoded onto the heap:
//
//	meta    JSON: family, dim, row count
//	ids     string column, ordinal -> external ID
//	idsort  uint32[n] ordinals sorted by ID, for binary-search lookups
//	norms   float32[n] inverse Euclidean norm of each row's codes
//	codes   int8[n*dim] the rows back to back

// binMeta is the JSON "meta" section of a segment.
type binMeta struct {
	Family string `json:"family"`
	// Metric is always 0 (cosine), written so segment files stay the bytes
	// they have always been.
	Metric int `json:"metric"`
	Dim    int `json:"dim"`
	Count  int `json:"count"`
}

// segment is one set of column views over a sealed SQFlat shard's
// container — the heap buffer Freeze built it in, or the mapping of the
// file that holds it (a Frozen switches from the first to the second, see
// Adopt). Nothing in it is ever rewritten: removals are tracked in the
// owning index's tombstones, additions land in its tail.
type segment struct {
	r *binfmt.Reader // pins the mapping for as long as the segment lives

	dim, n int
	ids    binfmt.StringCol
	idsort []uint32
	norms  []float32
	codes  []int8
}

const segmentFamily = "flat-int8"

// encodeSegment adds a segment's sections to bw.
func encodeSegment(bw *binfmt.Writer, dim int, ids []string, norms []float32, codes []int8) error {
	if err := bw.JSON("meta", binMeta{Family: segmentFamily, Dim: dim, Count: len(ids)}); err != nil {
		return fmt.Errorf("vecindex: encode snapshot: %w", err)
	}
	idsort := make([]uint32, len(ids))
	for i := range idsort {
		idsort[i] = uint32(i)
	}
	slices.SortFunc(idsort, func(a, b uint32) int { return strings.Compare(ids[a], ids[b]) })
	bw.Strings("ids", ids)
	bw.Uint32s("idsort", idsort)
	bw.Float32s("norms", norms)
	bw.Int8s("codes", codes)
	return nil
}

// loadSegment validates a binfmt container as an SQFlat segment and wraps
// it. The container's CRCs guarantee the bytes are what a writer produced;
// this pass guarantees the columns agree with each other, so a hand-made
// or foreign file fails at open rather than inside a scan.
func loadSegment(r *binfmt.Reader) (*segment, error) {
	var meta binMeta
	if err := r.JSON("meta", &meta); err != nil {
		return nil, err
	}
	if meta.Family != segmentFamily {
		return nil, fmt.Errorf("vecindex: snapshot family %q, want %q", meta.Family, segmentFamily)
	}
	if meta.Dim <= 0 || meta.Count < 0 {
		return nil, fmt.Errorf("vecindex: snapshot has invalid shape (dim=%d count=%d)", meta.Dim, meta.Count)
	}
	s := &segment{r: r, dim: meta.Dim, n: meta.Count}
	var err error
	if s.ids, err = r.Strings("ids"); err != nil {
		return nil, err
	}
	if s.idsort, err = r.Uint32s("idsort"); err != nil {
		return nil, err
	}
	if s.norms, err = r.Float32s("norms"); err != nil {
		return nil, err
	}
	if s.codes, err = r.Int8s("codes"); err != nil {
		return nil, err
	}
	if s.ids.Len() != s.n || len(s.idsort) != s.n || len(s.norms) != s.n {
		return nil, fmt.Errorf("vecindex: snapshot row columns disagree (ids=%d idsort=%d norms=%d count=%d)",
			s.ids.Len(), len(s.idsort), len(s.norms), s.n)
	}
	if len(s.codes)%s.dim != 0 || len(s.codes)/s.dim != s.n {
		return nil, fmt.Errorf("vecindex: snapshot has %d codes, want %d rows of %d", len(s.codes), s.n, s.dim)
	}
	// idsort must order ids strictly, which also proves it a permutation
	// and the IDs distinct.
	for i, ord := range s.idsort {
		if int(ord) >= s.n {
			return nil, fmt.Errorf("vecindex: snapshot idsort[%d]=%d out of range", i, ord)
		}
		if i > 0 && bytes.Compare(s.ids.Bytes(int(s.idsort[i-1])), s.ids.Bytes(int(ord))) >= 0 {
			return nil, fmt.Errorf("vecindex: snapshot has a duplicate id or an unsorted idsort at %d", i)
		}
	}
	for ord, norm := range s.norms {
		if !(norm >= 0) || math.IsInf(float64(norm), 1) {
			return nil, fmt.Errorf("vecindex: snapshot row %d has norm %v", ord, norm)
		}
	}
	return s, nil
}

// find returns the ordinal of id, or -1. Allocation-free.
func (s *segment) find(id string) int {
	i, ok := sort.Find(s.n, func(i int) int {
		return strings.Compare(id, viewString(s.ids.Bytes(int(s.idsort[i]))))
	})
	if !ok {
		return -1
	}
	return int(s.idsort[i])
}
