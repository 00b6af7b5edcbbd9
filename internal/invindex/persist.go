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
	// cols views the container Freeze built until Adopt, the mapped file after;
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
// count live documents only; ties break by ID whichever tier holds a
// document). An index with nothing written since its last seal returns the
// segment it has. The analyzer is not captured; the loader supplies it.
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

// sealLocked builds the compacted segment: the live base documents, in ID
// order already, merged with the live delta documents sorted by ID; terms
// sorted, each term's pairs in document order (the base run decoded and
// remapped, merged with the delta's remapped pairs) and encoded as blocks.
// Caller holds the write lock.
func (ix *Index) sealLocked(base *staticSeg) (*staticSeg, error) {
	delta := make([]int32, 0, ix.liveDocs)
	for ord, dead := range ix.deleted {
		if !dead {
			delta = append(delta, int32(ord))
		}
	}
	slices.SortFunc(delta, func(a, b int32) int { return strings.Compare(ix.ids[a], ix.ids[b]) })

	var ids binfmt.FrontCoder
	lengths := make([]int32, 0, ix.baseLive+ix.liveDocs)
	remap := make([]int32, len(ix.ids)) // delta ordinal -> segment ordinal, for live ones
	takeDelta := func(ord int32) {
		remap[ord] = int32(len(lengths))
		ids.Add(ix.ids[ord])
		lengths = append(lengths, ix.lengths[ord])
	}
	baseRemap := make([]int32, len(ix.baseDeleted)) // -1 for dead documents
	j := 0
	if base != nil {
		for ord, id := range base.ids.All() {
			for ; j < len(delta) && ix.ids[delta[j]] < view(id); j++ {
				takeDelta(delta[j])
			}
			baseRemap[ord] = -1
			if !ix.baseDeleted[ord] {
				baseRemap[ord] = int32(len(lengths))
				ids.Add(view(id))
				lengths = append(lengths, base.lengths[ord])
			}
		}
	}
	for ; j < len(delta); j++ {
		takeDelta(delta[j])
	}

	terms := make([]string, 0, len(ix.postings))
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
	var baseRun, run []int32 // one term's live base pairs, then all its pairs
	var deltaRun []int64     // one term's live delta pairs as doc<<32 | freq
	for _, t := range terms {
		baseRun = baseRun[:0]
		if base != nil {
			if bt := base.findTerm(t); bt >= 0 {
				var err error
				if baseRun, err = base.pairs(bt, baseRun); err != nil {
					return nil, err
				}
				// baseRemap ascends, so the kept pairs still do.
				kept := baseRun[:0]
				for i := 0; i < len(baseRun); i += 2 {
					if no := baseRemap[baseRun[i]]; no >= 0 {
						kept = append(kept, no, baseRun[i+1])
					}
				}
				baseRun = kept
			}
		}
		deltaRun = deltaRun[:0]
		for _, p := range ix.postings[t] {
			if !ix.deleted[p.doc] {
				deltaRun = append(deltaRun, int64(remap[p.doc])<<32|int64(p.freq))
			}
		}
		slices.Sort(deltaRun)
		out := baseRun // no delta pairs: the base run as it stands
		if len(deltaRun) > 0 {
			run = run[:0]
			for i, j := 0, 0; i < len(baseRun) || j < len(deltaRun); {
				if j == len(deltaRun) || i < len(baseRun) && int64(baseRun[i]) < deltaRun[j]>>32 {
					run = append(run, baseRun[i], baseRun[i+1])
					i += 2
				} else {
					run = append(run, int32(deltaRun[j]>>32), int32(deltaRun[j]))
					j++
				}
			}
			out = run
		}
		if run := out; len(run) > 0 {
			posts = appendRun(posts, run)
			live = append(live, t)
			postIdx = append(postIdx, postIdx[len(postIdx)-1]+uint32(len(run)/2))
			postOff = append(postOff, uint32(len(posts)))
		}
	}
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", staticMeta{
		Family: "bm25", K1: ix.k1, B: ix.b,
		Docs: len(lengths), Terms: len(live), Pairs: int(postIdx[len(live)]), TotalLen: ix.baseTotalLen + ix.totalLen,
	}); err != nil {
		return nil, err
	}
	bw.FrontCoded("ids", &ids)
	bw.Int32s("lengths", lengths)
	bw.Strings("terms", live)
	bw.Uint32s("postidx", postIdx)
	bw.Uint32s("postoff", postOff)
	bw.Section("postings", posts)
	fr, err := bw.Build()
	runtime.KeepAlive(base) // terms viewed its column until here
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
// and scores, while the built container is released. On error nothing
// moves.
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
