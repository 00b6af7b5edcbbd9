package vecindex

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// Snapshot layouts, each one binfmt container.
//
// An SQFlat segment (family "flat-int8") is the rows as columns, all
// served as views of the container, nothing decoded onto the heap:
//
//	meta    JSON: family, dim, row count
//	ids     string column, ordinal -> external ID
//	idsort  uint32[n] ordinals sorted by ID, for binary-search lookups
//	norms   float32[n] inverse Euclidean norm of each row's codes
//	codes   int8[n*dim] the rows back to back
//
// IVF and LSH keep float32 rows: a "meta" JSON section naming the family
// and its parameters, an "ids" string column, and a "vecs" float32 section
// holding all vectors back to back, sliced into per-vector views without
// copying; IVF adds "centroids" and "cells", both copied at load. Every
// view such an index holds is of one container, store.pin, which it
// retains to keep the mapping alive; Adopt, which replaces pin, leaves no
// view of the old one behind.

// binMeta is the JSON "meta" section of a vector snapshot.
type binMeta struct {
	Family string `json:"family"`
	Metric int    `json:"metric"`
	Dim    int    `json:"dim"`
	Count  int    `json:"count"`

	// IVF
	NList     int    `json:"nlist,omitempty"`
	NProbe    int    `json:"nprobe,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Trained   bool   `json:"trained,omitempty"`
	Centroids int    `json:"centroids,omitempty"`

	// LSH
	NBits   int `json:"nbits,omitempty"`
	NTables int `json:"ntables,omitempty"`
}

// flattenVecs packs rows into one contiguous float32 blob.
func flattenVecs[R ~[]float32](rows []R, dim int) []float32 {
	blob := make([]float32, 0, len(rows)*dim)
	for _, r := range rows {
		blob = append(blob, r...)
	}
	return blob
}

// writeCommon adds the meta, ids, and vecs sections.
func writeCommon(bw *binfmt.Writer, meta binMeta, ids []string, vecs []embed.Vector) error {
	if err := bw.JSON("meta", meta); err != nil {
		return fmt.Errorf("vecindex: encode snapshot: %w", err)
	}
	bw.Strings("ids", ids)
	bw.Float32s("vecs", flattenVecs(vecs, meta.Dim))
	return nil
}

// readCommon validates the meta, ids, and vecs sections against family and
// returns the decoded IDs plus zero-copy per-vector views of the blob.
func readCommon(fr *binfmt.Reader, family string) (binMeta, []string, []embed.Vector, error) {
	var meta binMeta
	if err := fr.JSON("meta", &meta); err != nil {
		return meta, nil, nil, err
	}
	if meta.Family != family {
		return meta, nil, nil, fmt.Errorf("vecindex: snapshot family %q, want %q", meta.Family, family)
	}
	if meta.Dim <= 0 {
		return meta, nil, nil, fmt.Errorf("vecindex: snapshot has invalid dimension %d", meta.Dim)
	}
	if meta.Count < 0 {
		return meta, nil, nil, fmt.Errorf("vecindex: snapshot has negative count %d", meta.Count)
	}
	idCol, err := fr.Strings("ids")
	if err != nil {
		return meta, nil, nil, err
	}
	if idCol.Len() != meta.Count {
		return meta, nil, nil, fmt.Errorf("vecindex: snapshot id count %d, meta says %d", idCol.Len(), meta.Count)
	}
	blob, err := fr.Float32s("vecs")
	if err != nil {
		return meta, nil, nil, err
	}
	if len(blob) != meta.Count*meta.Dim {
		return meta, nil, nil, fmt.Errorf("vecindex: snapshot vector blob has %d floats, want %d", len(blob), meta.Count*meta.Dim)
	}
	ids := make([]string, meta.Count)
	vecs := make([]embed.Vector, meta.Count)
	seen := make(map[string]struct{}, meta.Count)
	for i := 0; i < meta.Count; i++ {
		ids[i] = idCol.At(i)
		if _, dup := seen[ids[i]]; dup {
			return meta, nil, nil, fmt.Errorf("vecindex: snapshot has duplicate id %q", ids[i])
		}
		seen[ids[i]] = struct{}{}
		vecs[i] = embed.Vector(blob[i*meta.Dim : (i+1)*meta.Dim : (i+1)*meta.Dim])
	}
	return meta, ids, vecs, nil
}

// load fills an empty store with rows of which some or all are views of fr
// (nil when none is), pinning the container so its mapping outlives every
// view.
func (s *store) load(fr *binfmt.Reader, ids []string, vecs []embed.Vector) {
	s.ids, s.vecs, s.deleted, s.live, s.pin = ids, vecs, make([]bool, len(ids)), len(ids), fr
	if fr != nil {
		s.blob, _ = fr.Float32s("vecs") // readCommon already validated it
	}
	for i, id := range ids {
		s.byID[id] = i
		if s.inBlob(vecs[i]) {
			s.viewing++
		}
	}
}

func (s *ivfSnapshot) encode(bw *binfmt.Writer) error {
	meta := binMeta{
		Family: "ivf", Metric: s.Metric, Dim: s.Dim, Count: len(s.IDs),
		NList: s.NList, NProbe: s.NProbe, Seed: s.Seed,
		Trained: s.Trained, Centroids: len(s.Centroids),
	}
	if err := writeCommon(bw, meta, s.IDs, s.Vecs); err != nil {
		return err
	}
	if s.Trained {
		bw.Float32s("centroids", flattenVecs(s.Centroids, s.Dim))
		bw.Int32s("cells", s.Cells)
	}
	return nil
}

func decodeIVF(fr *binfmt.Reader) (*IVF, error) {
	meta, ids, vecs, err := readCommon(fr, "ivf")
	if err != nil {
		return nil, err
	}
	if meta.NList <= 0 || meta.NProbe <= 0 {
		return nil, fmt.Errorf("vecindex: IVF snapshot has invalid parameters (nlist=%d nprobe=%d)", meta.NList, meta.NProbe)
	}
	ix := NewIVF(meta.Dim, Metric(meta.Metric), meta.NList, meta.NProbe, meta.Seed)
	ix.load(fr, ids, vecs)
	if meta.Trained {
		cblob, err := fr.Float32s("centroids")
		if err != nil {
			return nil, err
		}
		if len(cblob) != meta.Centroids*meta.Dim {
			return nil, fmt.Errorf("vecindex: IVF snapshot centroid blob has %d floats, want %d", len(cblob), meta.Centroids*meta.Dim)
		}
		cells, err := fr.Int32s("cells")
		if err != nil {
			return nil, err
		}
		if len(cells) != meta.Count {
			return nil, fmt.Errorf("vecindex: IVF snapshot cell/vector count mismatch (%d vs %d)", len(cells), meta.Count)
		}
		ix.trained = true
		ix.centroids = make([]embed.Vector, meta.Centroids)
		for i := range ix.centroids {
			// Copied: small, and it leaves rows the only views of fr.
			ix.centroids[i] = embed.Clone(cblob[i*meta.Dim : (i+1)*meta.Dim])
		}
		ix.cells = make([][]int, meta.Centroids)
		for ord, c := range cells {
			if c < 0 || int(c) >= meta.Centroids {
				return nil, fmt.Errorf("vecindex: IVF snapshot vector %d references unknown cell %d", ord, c)
			}
			ix.cells[c] = append(ix.cells[c], ord)
		}
	}
	return ix, nil
}

func (s *lshSnapshot) encode(bw *binfmt.Writer) error {
	return writeCommon(bw, binMeta{
		Family: "lsh", Metric: int(Cosine), Dim: s.Dim, Count: len(s.IDs),
		NBits: s.NBits, NTables: s.NTables, Seed: s.Seed,
	}, s.IDs, s.Vecs)
}

func decodeLSH(fr *binfmt.Reader) (*LSH, error) {
	meta, ids, vecs, err := readCommon(fr, "lsh")
	if err != nil {
		return nil, err
	}
	if meta.NBits <= 0 || meta.NBits > 64 || meta.NTables <= 0 {
		return nil, fmt.Errorf("vecindex: LSH snapshot has invalid parameters (nbits=%d ntables=%d)", meta.NBits, meta.NTables)
	}
	ix := NewLSH(meta.Dim, meta.NBits, meta.NTables, meta.Seed)
	ix.load(fr, ids, vecs)
	// The hyperplane family is a pure function of the parameters; re-hash
	// each vector into identical buckets.
	for ord, v := range ix.vecs {
		for t := 0; t < ix.ntables; t++ {
			sig := ix.signature(t, v)
			ix.tables[t][sig] = append(ix.tables[t][sig], ord)
		}
	}
	return ix, nil
}

// segment is one set of column views over a sealed SQFlat shard's
// container — the heap buffer Freeze built it in, or the mapping of the
// file that holds it (a sealedRows switches from the first to the second,
// see Adopt). Nothing in it is ever rewritten: removals are tracked in the
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
