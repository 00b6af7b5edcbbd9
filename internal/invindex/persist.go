package invindex

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/binfmt"
)

// Snapshots are written in the binfmt columnar container (see Save and
// the column list on staticSeg), which a loader can memory-map and serve
// directly as an immutable base segment — recovery costs one verification
// pass instead of a full decode.

// snapshot is the in-memory form of a compacted capture.
type snapshot struct {
	K1, B    float64
	IDs      []string
	Lengths  []int32
	Postings map[string][]postingSnap
}

type postingSnap struct {
	Doc  int32
	Freq int32
}

// Frozen is an immutable, compacted capture of an index's contents,
// decoupled from the live structure: Freeze builds it quickly under the
// read lock (pure memory copies), Save serializes it later with no index
// locks held — the split that lets a checkpoint's long write phase run
// while ingestion keeps mutating the live index.
type Frozen struct {
	snap snapshot
}

// Freeze captures the index's current live contents across both tiers
// (base documents first, then delta). Tombstoned documents are compacted
// away, so a frozen capture never carries dead postings. The analyzer is
// not captured (functions cannot serialize); the loader supplies it.
func (ix *Index) Freeze() *Frozen {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var snap snapshot
	snap.K1, snap.B = ix.k1, ix.b
	snap.Postings = make(map[string][]postingSnap, len(ix.postings))

	// Base tier: remap live base ordinals into the compacted document
	// space, then walk the sorted term dictionary.
	var baseRemap []int32
	if ix.base != nil {
		baseRemap = make([]int32, ix.base.n)
		for ord := 0; ord < ix.base.n; ord++ {
			if ix.baseDeleted[ord] {
				baseRemap[ord] = -1
				continue
			}
			baseRemap[ord] = int32(len(snap.IDs))
			snap.IDs = append(snap.IDs, ix.base.ids.At(ord))
			snap.Lengths = append(snap.Lengths, ix.base.lengths[ord])
		}
		for ti := 0; ti < ix.base.terms.Len(); ti++ {
			pairs := ix.base.pairs(ti)
			var out []postingSnap
			for i := 0; i+1 < len(pairs); i += 2 {
				if no := baseRemap[pairs[i]]; no >= 0 {
					out = append(out, postingSnap{Doc: no, Freq: pairs[i+1]})
				}
			}
			if len(out) > 0 {
				snap.Postings[ix.base.terms.At(ti)] = out
			}
		}
	}

	// Delta tier.
	remap := make([]int32, len(ix.ids))
	for ord, id := range ix.ids {
		if ix.deleted[ord] {
			remap[ord] = -1
			continue
		}
		remap[ord] = int32(len(snap.IDs))
		snap.IDs = append(snap.IDs, id)
		snap.Lengths = append(snap.Lengths, ix.lengths[ord])
	}
	for t, plist := range ix.postings {
		out := snap.Postings[t]
		for _, p := range plist {
			if remap[p.doc] < 0 {
				continue
			}
			out = append(out, postingSnap{Doc: remap[p.doc], Freq: p.freq})
		}
		if len(out) > 0 {
			snap.Postings[t] = out
		}
	}
	return &Frozen{snap: snap}
}

// Save serializes the frozen capture to w in the binfmt columnar layout.
func (z *Frozen) Save(w io.Writer) error {
	s := &z.snap
	bw := binfmt.NewWriter()
	terms := make([]string, 0, len(s.Postings))
	for t := range s.Postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	pairs := 0
	for _, t := range terms {
		pairs += len(s.Postings[t])
	}
	var totalLen int64
	for _, l := range s.Lengths {
		totalLen += int64(l)
	}
	if err := bw.JSON("meta", staticMeta{
		Family: "bm25", K1: s.K1, B: s.B,
		Docs: len(s.IDs), Terms: len(terms), Pairs: pairs, TotalLen: totalLen,
	}); err != nil {
		return fmt.Errorf("invindex: encode snapshot: %w", err)
	}
	bw.Strings("ids", s.IDs)
	bw.Int32s("lengths", s.Lengths)
	idsort := make([]uint32, len(s.IDs))
	for i := range idsort {
		idsort[i] = uint32(i)
	}
	sort.Slice(idsort, func(a, b int) bool { return s.IDs[idsort[a]] < s.IDs[idsort[b]] })
	bw.Uint32s("idsort", idsort)
	bw.Strings("terms", terms)
	postIdx := make([]uint32, len(terms)+1)
	posts := make([]int32, 0, 2*pairs)
	for i, t := range terms {
		postIdx[i] = uint32(len(posts) / 2)
		for _, p := range s.Postings[t] {
			posts = append(posts, p.Doc, p.Freq)
		}
	}
	postIdx[len(terms)] = uint32(len(posts) / 2)
	bw.Uint32s("postidx", postIdx)
	bw.Int32s("postings", posts)
	if _, err := bw.WriteTo(w); err != nil {
		return fmt.Errorf("invindex: write snapshot: %w", err)
	}
	return nil
}

// Save writes a compacted snapshot of the index to w (Freeze then
// Frozen.Save in one call), for callers that do not need the two-phase
// split. The analyzer is not serialized; the loader supplies it, and the
// caller is responsible for supplying the same chain that built the index.
func (ix *Index) Save(w io.Writer) error {
	return ix.Freeze().Save(w)
}

// Load reads a snapshot produced by Save. Options (typically WithAnalyzer)
// apply after the snapshot's BM25 parameters are restored. Snapshots read
// through Load are fully buffered in memory; use OpenFile to serve one
// from a mapped file instead.
func Load(r io.Reader, opts ...Option) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("invindex: read snapshot: %w", err)
	}
	return loadBinary(data, opts...)
}

// OpenFile opens a snapshot file, serving it as an mmap'd immutable base
// segment (new writes layer into the mutable delta).
func OpenFile(path string, opts ...Option) (*Index, error) {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return fromReader(fr, opts...)
}

// fromReader wraps a verified binfmt container as an Index with an
// immutable base tier and an empty delta.
func fromReader(fr *binfmt.Reader, opts ...Option) (*Index, error) {
	base, err := loadStatic(fr)
	if err != nil {
		return nil, err
	}
	ix := New()
	ix.k1, ix.b = base.k1, base.b
	for _, o := range opts {
		o(ix)
	}
	ix.base = base
	ix.baseDeleted = make([]bool, base.n)
	ix.baseLive = base.n
	ix.baseTotalLen = base.totalLen
	return ix, nil
}

// loadBinary parses data as a binfmt snapshot held in memory.
func loadBinary(data []byte, opts ...Option) (*Index, error) {
	fr, err := binfmt.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return fromReader(fr, opts...)
}
