package vecindex

import (
	"fmt"
	"math"

	"repro/internal/binfmt"
)

// An SQFlat segment (family "flat-int8") is one binfmt container holding
// the rows as columns, all served as views of the container, nothing
// decoded onto the heap. Ordinals follow the rows' IDs in ascending order,
// so two base rows tied on score compare as ordinals.
//
//	meta    JSON: family, dim, row count
//	ids     front-coded string column (binfmt.FrontCoder), ordinal ->
//	        external ID, ascending
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
	ids    binfmt.FrontCodedCol
	norms  []float32
	codes  []int8
}

const segmentFamily = "flat-int8"

// encodeSegment adds a segment's sections to bw.
func encodeSegment(bw *binfmt.Writer, dim int, ids *binfmt.FrontCoder, norms []float32, codes []int8) error {
	if err := bw.JSON("meta", binMeta{Family: segmentFamily, Dim: dim, Count: len(norms)}); err != nil {
		return fmt.Errorf("vecindex: encode snapshot: %w", err)
	}
	bw.FrontCoded("ids", ids)
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
	if s.ids, err = r.FrontCoded("ids"); err != nil {
		return nil, err
	}
	if s.norms, err = r.Float32s("norms"); err != nil {
		return nil, err
	}
	if s.codes, err = r.Int8s("codes"); err != nil {
		return nil, err
	}
	if s.ids.Len() != s.n || len(s.norms) != s.n {
		return nil, fmt.Errorf("vecindex: snapshot row columns disagree (ids=%d norms=%d count=%d)",
			s.ids.Len(), len(s.norms), s.n)
	}
	if len(s.codes)%s.dim != 0 || len(s.codes)/s.dim != s.n {
		return nil, fmt.Errorf("vecindex: snapshot has %d codes, want %d rows of %d", len(s.codes), s.n, s.dim)
	}
	for ord, norm := range s.norms {
		if !(norm >= 0) || math.IsInf(float64(norm), 1) {
			return nil, fmt.Errorf("vecindex: snapshot row %d has norm %v", ord, norm)
		}
	}
	return s, nil
}
