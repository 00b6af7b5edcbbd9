package invindex

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/binfmt"
	"repro/internal/textutil"
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
// segment it has.
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
	ix.byID, ix.postings = make(map[string]int), nil
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

	// The delta's terms, resolved from their IDs and sorted, merge with the
	// base's, which its column holds sorted already.
	type deltaTerm struct {
		term  string
		plist []posting
	}
	var dterms []deltaTerm
	for id, plist := range ix.postings {
		if len(plist) > 0 {
			dterms = append(dterms, deltaTerm{ix.dict.Term(uint32(id)), plist})
		}
	}
	slices.SortFunc(dterms, func(a, b deltaTerm) int { return strings.Compare(a.term, b.term) })
	nBase := 0
	if base != nil {
		nBase = base.terms.Len()
	}

	var live []string // terms that keep at least one pair
	postIdx := make([]uint32, 1, len(dterms)+nBase+1)
	postOff := make([]uint32, 1, len(dterms)+nBase+1)
	var posts []byte
	var baseRun, run []int32 // one term's live base pairs, then all its pairs
	var deltaRun []int64     // one term's live delta pairs as doc<<32 | freq
	for bi, di := 0, 0; bi < nBase || di < len(dterms); {
		// The next term in order: the base's, the delta's, or both's.
		var t string
		var plist []posting
		bt := -1
		if bi < nBase {
			t, bt = view(base.terms.Bytes(bi)), bi
		}
		if di < len(dterms) {
			switch {
			case bt < 0 || dterms[di].term < t:
				t, bt, plist = dterms[di].term, -1, dterms[di].plist
			case dterms[di].term == t:
				plist = dterms[di].plist
			}
		}
		if bt >= 0 {
			bi++
		}
		if plist != nil {
			di++
		}
		baseRun = baseRun[:0]
		if bt >= 0 {
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
		deltaRun = deltaRun[:0]
		for _, p := range plist {
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
// shared, no tombstones, empty delta over a dictionary of its own) for
// reads pinned to the version it was sealed at, scoring with the segment's
// BM25 parameters.
func (z *Frozen) Index() *Index { return z.index(textutil.NewDict()) }

func (z *Frozen) index(d *textutil.Dict) *Index {
	seg := z.cols.Load()
	ix := NewWithDict(d)
	ix.k1, ix.b = seg.k1, seg.b
	ix.setBase(z)
	return ix
}

// OpenFile opens a snapshot file, serving it as an mmap'd immutable base
// segment (new writes layer into the mutable delta, over a dictionary of
// its own).
func OpenFile(path string) (*Index, error) { return OpenFileWithDict(path, textutil.NewDict()) }

// OpenFileWithDict is OpenFile with the delta over the dictionary d.
func OpenFileWithDict(path string, d *textutil.Dict) (*Index, error) {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	base, err := loadStatic(fr)
	if err != nil {
		return nil, err
	}
	return newFrozen(base).index(d), nil
}
