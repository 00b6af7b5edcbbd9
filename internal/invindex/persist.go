package invindex

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/binfmt"
)

// Frozen is one sealed segment: an immutable, compacted capture of an
// index in the binfmt columnar layout (see staticSeg). It is the one form a
// sealed shard takes: the live index searches it as its base tier, a
// retained snapshot searches it through Index, Save writes its bytes, and
// Adopt swaps those bytes for the mapping of the file Save wrote.
type Frozen struct {
	// cols views the sealed heap buffer until Adopt, the mapped file after;
	// both hold the same bytes, so a search may load either.
	cols atomic.Pointer[staticSeg]
}

func newFrozen(seg *staticSeg) *Frozen {
	z := new(Frozen)
	z.cols.Store(seg)
	return z
}

// Freeze seals the index: base, delta and tombstones are compacted into a
// new segment, which becomes the base under an empty delta and is
// returned. Searches score the same before and after (BM25 statistics
// count live documents only; ties break by ID, not ordinal). An index with
// nothing written since its last seal returns the segment it has. The
// analyzer is not captured; the loader supplies it.
func (ix *Index) Freeze() *Frozen {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	base := ix.baseSeg()
	if base != nil && len(ix.ids) == 0 && ix.baseLive == base.n {
		return ix.base
	}
	seg, err := ix.sealLocked(base)
	if err != nil {
		// Built here from a consistent index, yet failing the validation
		// every loaded snapshot passes: a bug.
		panic(fmt.Sprintf("invindex: seal: %v", err))
	}
	ix.ids, ix.lengths, ix.deleted, ix.totalLen, ix.liveDocs = nil, nil, nil, 0, 0
	ix.byID, ix.postings = make(map[string]int), make(map[string][]posting)
	ix.setBase(newFrozen(seg))
	return ix.base
}

// setBase installs z as the base tier with no tombstones.
func (ix *Index) setBase(z *Frozen) {
	seg := z.cols.Load()
	ix.base, ix.baseDeleted, ix.baseLive, ix.baseTotalLen = z, make([]bool, seg.n), seg.n, seg.totalLen
}

// sealLocked builds the compacted segment: live base documents in ordinal
// order, then live delta documents; terms sorted, each term's pairs in
// document order (base runs decoded, delta after) and encoded as blocks.
// Caller holds the write lock.
func (ix *Index) sealLocked(base *staticSeg) (*staticSeg, error) {
	ids := make([]string, 0, ix.baseLive+ix.liveDocs)
	lengths := make([]int32, 0, cap(ids))
	terms := make([]string, 0, len(ix.postings))
	baseRemap := make([]int32, len(ix.baseDeleted))
	for ord := range baseRemap {
		baseRemap[ord] = -1
		if !ix.baseDeleted[ord] {
			baseRemap[ord] = int32(len(ids))
			ids = append(ids, view(base.ids.Bytes(ord)))
			lengths = append(lengths, base.lengths[ord])
		}
	}
	remap := make([]int32, len(ix.ids))
	for ord, id := range ix.ids {
		remap[ord] = -1
		if !ix.deleted[ord] {
			remap[ord] = int32(len(ids))
			ids = append(ids, id)
			lengths = append(lengths, ix.lengths[ord])
		}
	}
	for t := range ix.postings {
		terms = append(terms, t)
	}
	for ti := 0; base != nil && ti < base.terms.Len(); ti++ {
		terms = append(terms, view(base.terms.Bytes(ti)))
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	live := terms[:0] // terms that keep at least one pair
	postIdx := make([]uint32, 1, len(terms)+1)
	postOff := make([]uint32, 1, len(terms)+1)
	var posts []byte
	var run []int32 // one term's pairs: live base pairs remapped, then delta pairs
	for _, t := range terms {
		run = run[:0]
		if base != nil {
			if bt := base.findTerm(t); bt >= 0 {
				var err error
				if run, err = base.pairs(bt, run); err != nil {
					return nil, err
				}
				kept := run[:0]
				for i := 0; i < len(run); i += 2 {
					if no := baseRemap[run[i]]; no >= 0 {
						kept = append(kept, no, run[i+1])
					}
				}
				run = kept
			}
		}
		for _, p := range ix.postings[t] {
			if no := remap[p.doc]; no >= 0 {
				run = append(run, no, p.freq)
			}
		}
		if len(run) > 0 {
			posts = appendRun(posts, run)
			live = append(live, t)
			postIdx = append(postIdx, postIdx[len(postIdx)-1]+uint32(len(run)/2))
			postOff = append(postOff, uint32(len(posts)))
		}
	}
	idsort := make([]uint32, len(ids))
	for i := range idsort {
		idsort[i] = uint32(i)
	}
	slices.SortFunc(idsort, func(a, b uint32) int { return strings.Compare(ids[a], ids[b]) })

	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", staticMeta{
		Family: "bm25", K1: ix.k1, B: ix.b,
		Docs: len(ids), Terms: len(live), Pairs: int(postIdx[len(live)]), TotalLen: ix.baseTotalLen + ix.totalLen,
	}); err != nil {
		return nil, err
	}
	bw.Strings("ids", ids)
	bw.Int32s("lengths", lengths)
	bw.Uint32s("idsort", idsort)
	bw.Strings("terms", live)
	bw.Uint32s("postidx", postIdx)
	bw.Uint32s("postoff", postOff)
	bw.Section("postings", posts)
	fr, err := bw.Build()
	runtime.KeepAlive(base) // ids and terms viewed its columns until here
	if err != nil {
		return nil, err
	}
	return loadStatic(fr)
}

// Save writes the segment's bytes to w: the binfmt container a loader can
// memory-map and serve as a base segment.
func (z *Frozen) Save(w io.Writer) error {
	if _, err := z.cols.Load().r.WriteTo(w); err != nil {
		return fmt.Errorf("invindex: write snapshot: %w", err)
	}
	return nil
}

// Adopt moves the segment onto the file at path, which must be the file
// Save wrote (same container identity): it is opened as OpenFile opens a
// snapshot and the column views switch to its mapping — same bytes, same
// ordinals, so every index sharing the segment keeps its tombstones, delta
// and scores, while the heap copy becomes garbage. On error nothing moves.
func (z *Frozen) Adopt(path string) error {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return fmt.Errorf("invindex: %w", err)
	}
	if got, want := fr.ID(), z.cols.Load().r.ID(); got != want {
		return fmt.Errorf("invindex: %s holds container %+v, segment wrote %+v", path, got, want)
	}
	seg, err := loadStatic(fr)
	if err != nil {
		return err
	}
	z.cols.Store(seg)
	return nil
}

// Index wraps the segment as a searchable index of its own (base tier
// shared, no tombstones, empty delta) for reads pinned to the version it
// was sealed at. Options apply after the segment's BM25 parameters.
func (z *Frozen) Index(opts ...Option) *Index {
	seg := z.cols.Load()
	ix := New()
	ix.k1, ix.b = seg.k1, seg.b
	for _, o := range opts {
		o(ix)
	}
	ix.setBase(z)
	return ix
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
	return newFrozen(base).Index(opts...), nil
}
