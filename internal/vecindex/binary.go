package vecindex

import (
	"fmt"
	"math"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// Binary snapshot layout shared by all families: a "meta" JSON section
// naming the family and its parameters, an "ids" string column, and a
// "vecs" float32 section holding all vectors back to back. Loaders slice
// individual vectors out of the blob without copying, so an mmap-backed
// container serves searches before most vector pages ever fault in.
// Family-specific columns: IVF adds "centroids" and "cells"; SQFlat adds
// "codes", "sums", "sqsums", and "norms", loaded as views too (IVF's are
// copied). Every view an index holds is of one container, store.pin, which
// it retains to keep the mapping alive; Adopt, which replaces pin, leaves
// no view of the old one behind.

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

	// SQFlat
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
	Rerank int     `json:"rerank,omitempty"`
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

func (s *flatSnapshot) encode(bw *binfmt.Writer) error {
	return writeCommon(bw, binMeta{
		Family: "flat", Metric: s.Metric, Dim: s.Dim, Count: len(s.IDs),
	}, s.IDs, s.Vecs)
}

func decodeFlat(fr *binfmt.Reader) (*Flat, error) {
	meta, ids, vecs, err := readCommon(fr, "flat")
	if err != nil {
		return nil, err
	}
	f := NewFlat(meta.Dim, Metric(meta.Metric))
	f.load(fr, ids, vecs)
	return f, nil
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

func (s *sqSnapshot) encode(bw *binfmt.Writer) error {
	meta := binMeta{
		Family: "sqflat", Metric: s.Metric, Dim: s.Dim, Count: len(s.IDs),
		Lo: float64(s.Lo), Hi: float64(s.Hi), Rerank: s.Rerank,
	}
	if err := writeCommon(bw, meta, s.IDs, s.Vecs); err != nil {
		return err
	}
	bw.Int8s("codes", s.Codes)
	bw.Int32s("sums", s.Sums)
	bw.Int32s("sqsums", s.SqSums)
	bw.Float32s("norms", s.Norms)
	return nil
}

func decodeSQ(fr *binfmt.Reader) (*SQFlat, error) {
	meta, ids, vecs, err := readCommon(fr, "sqflat")
	if err != nil {
		return nil, err
	}
	if math.IsNaN(meta.Lo) || math.IsNaN(meta.Hi) || meta.Hi < meta.Lo {
		return nil, fmt.Errorf("vecindex: SQ snapshot has invalid range [%g, %g]", meta.Lo, meta.Hi)
	}
	codes, err := fr.Int8s("codes")
	if err != nil {
		return nil, err
	}
	sums, err := fr.Int32s("sums")
	if err != nil {
		return nil, err
	}
	sqsums, err := fr.Int32s("sqsums")
	if err != nil {
		return nil, err
	}
	norms, err := fr.Float32s("norms")
	if err != nil {
		return nil, err
	}
	if len(codes) != meta.Count*meta.Dim || len(sums) != meta.Count || len(sqsums) != meta.Count || len(norms) != meta.Count {
		return nil, fmt.Errorf("vecindex: SQ snapshot column lengths disagree (codes=%d sums=%d sqsums=%d norms=%d count=%d)",
			len(codes), len(sums), len(sqsums), len(norms), meta.Count)
	}
	ix := NewSQFlat(meta.Dim, Metric(meta.Metric), meta.Rerank)
	ix.load(fr, ids, vecs)
	ix.lo, ix.hi = float32(meta.Lo), float32(meta.Hi)
	ix.ranged = meta.Count > 0
	ix.codes = codes
	ix.sums = sums
	ix.sqsums = sqsums
	ix.norms = norms
	ix.viewed = true
	return ix, nil
}
