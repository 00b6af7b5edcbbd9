package invindex

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"repro/internal/binfmt"
	"repro/internal/seglist"
	"repro/internal/textutil"
)

// Frozen is one sealed segment: an immutable, compacted capture of
// documents in the binfmt columnar layout (see staticSeg). It is the one
// form a sealed shard takes: every index whose list holds it searches it,
// a retained snapshot searches it through Index, and Save writes its bytes
// to a file.
type Frozen struct {
	seg *staticSeg
}

func newFrozen(seg *staticSeg) *Frozen { return &Frozen{seg: seg} }

// Seal moves the delta into a new segment at the end of the list, then
// merges by seglist.Merge's policy, by documents: a seal costs the delta's
// size, and a document is copied into a new segment O(log n) times over
// the index's life. Searches score the same before and after (see Index).
func (ix *Index) Seal() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var add []*part
	if ix.liveDocs > 0 {
		add = append(add, newPart(newFrozen(ix.mustMerge(nil, true))))
		ix.segTotalLen += ix.totalLen
	}
	if len(ix.ids) > 0 {
		ix.resetDelta()
	}
	segs, _ := seglist.Merge(ix.segs, func(p *part) int { return len(p.Dead) }, func(segs []*part) (*part, error) {
		return newPart(newFrozen(ix.mustMerge(segs, false))), nil
	}, add...)
	ix.setSegs(segs)
}

// Freeze folds the index — segments, delta and tombstones — into one new
// segment, which it then searches alone under an empty delta, and returns
// it: the form a snapshot file holds. Searches score the same before and
// after. An index that is one segment with nothing written or deleted
// since returns the segment it has.
func (ix *Index) Freeze() *Frozen {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.ids) == 0 && len(ix.segs) == 1 && ix.segLive == ix.segDocs {
		return ix.segs[0].z
	}
	z := newFrozen(ix.mustMerge(ix.segs, true))
	ix.segTotalLen += ix.totalLen
	ix.resetDelta()
	ix.setSegs([]*part{newPart(z)})
	return z
}

func (ix *Index) resetDelta() {
	ix.ids, ix.lengths, ix.deleted, ix.totalLen, ix.liveDocs = nil, nil, nil, 0, 0
	ix.byID, ix.postings = make(map[string]int), nil
}

// mustMerge is mergeLocked, whose failure is a bug: the segment was built
// here from a consistent index, yet fails the validation every loaded
// snapshot passes.
func (ix *Index) mustMerge(segs []*part, delta bool) *staticSeg {
	seg, err := ix.mergeLocked(segs, delta)
	if err != nil {
		panic(fmt.Sprintf("invindex: seal: %v", err))
	}
	return seg
}

// mergeLocked builds one segment of the live documents of segs and, with
// delta, of the delta: documents in ID order, terms sorted, each term's
// pairs in document order (each input's run decoded, remapped and merged)
// and encoded as blocks. The bytes depend only on the live documents, not
// on how they were split between inputs. Caller holds the write lock.
func (ix *Index) mergeLocked(segs []*part, delta bool) (*staticSeg, error) {
	loaded := make([]*staticSeg, len(segs))
	cols, dead := make([]binfmt.FrontCodedCol, len(segs)), make([][]bool, len(segs))
	remaps := make([][]int32, len(segs)+1) // input row -> merged ordinal, for live rows
	docs := 0
	for i, p := range segs {
		loaded[i] = p.z.seg
		cols[i], dead[i] = loaded[i].ids, p.Dead
		remaps[i] = make([]int32, loaded[i].n)
		docs += p.Live
	}
	var order []int32 // the delta's live documents in ID order
	var deltaIDs []string
	var dterms []deltaTerm
	if delta {
		order = make([]int32, 0, ix.liveDocs)
		for ord, dead := range ix.deleted {
			if !dead {
				order = append(order, int32(ord))
			}
		}
		slices.SortFunc(order, func(a, b int32) int { return strings.Compare(ix.ids[a], ix.ids[b]) })
		deltaIDs = make([]string, len(order))
		for i, ord := range order {
			deltaIDs[i] = ix.ids[ord]
		}
		remaps[len(segs)] = make([]int32, len(ix.ids))
		docs += len(order)
		// The delta's terms, resolved from their IDs and sorted.
		for id, plist := range ix.postings {
			if len(plist) > 0 {
				dterms = append(dterms, deltaTerm{ix.dict.Term(uint32(id)), plist})
			}
		}
		slices.SortFunc(dterms, func(a, b deltaTerm) int { return strings.Compare(a.term, b.term) })
	}

	var ids binfmt.FrontCoder
	lengths := make([]uint32, 0, docs)
	var totalLen int64
	binfmt.MergeAscending(cols, dead, deltaIDs, func(src, row int, id string) {
		ids.Add(id)
		var l uint32
		if src == len(segs) {
			row = int(order[row])
			l = uint32(ix.lengths[row])
		} else {
			l = loaded[src].lengths.At(row)
		}
		remaps[src][row] = int32(len(lengths))
		lengths = append(lengths, l)
		totalLen += int64(l)
	})

	// termAt returns input i's next term: a segment's from its column,
	// which holds them sorted, or the delta's.
	tnext := make([]int, len(segs)+1)
	termAt := func(i int) (string, bool) {
		if i == len(segs) {
			if tnext[i] < len(dterms) {
				return dterms[tnext[i]].term, true
			}
		} else if tnext[i] < loaded[i].terms.Len() {
			return view(loaded[i].terms.Bytes(tnext[i])), true
		}
		return "", false
	}
	var live []string // terms that keep at least one pair
	df := make([]uint32, 0, len(dterms))
	postOff := make([]uint32, 1, 1+len(dterms))
	pairs := 0
	var posts []byte
	var run, in, merged []int32 // one term's pairs so far, one input's, and the two merged
	var deltaRun []int64        // one term's live delta pairs as doc<<32 | freq
	for {
		t, found := "", false
		for i := range tnext {
			if s, ok := termAt(i); ok && (!found || s < t) {
				t, found = s, true
			}
		}
		if !found {
			break
		}
		run = run[:0]
		for i := range tnext {
			if s, ok := termAt(i); !ok || s != t {
				continue
			}
			in = in[:0]
			if i == len(segs) {
				deltaRun = deltaRun[:0]
				for _, p := range dterms[tnext[i]].plist {
					if !ix.deleted[p.doc] {
						deltaRun = append(deltaRun, int64(remaps[i][p.doc])<<32|int64(p.freq))
					}
				}
				slices.Sort(deltaRun)
				for _, p := range deltaRun {
					in = append(in, int32(p>>32), int32(p))
				}
			} else {
				var err error
				if in, err = loaded[i].pairs(tnext[i], in); err != nil {
					return nil, err
				}
				// The remap ascends, so the kept pairs still do.
				kept := in[:0]
				for j := 0; j < len(in); j += 2 {
					if !dead[i][in[j]] {
						kept = append(kept, remaps[i][in[j]], in[j+1])
					}
				}
				in = kept
			}
			tnext[i]++
			if len(run) == 0 {
				run, in = in, run
				continue
			}
			merged = mergePairs(merged[:0], run, in)
			run, merged = merged, run
		}
		if len(run) > 0 {
			posts = appendRun(posts, run)
			live = append(live, t)
			df = append(df, uint32(len(run)/2))
			pairs += len(run) / 2
			postOff = append(postOff, uint32(len(posts)))
		}
	}
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", staticMeta{
		Family: "bm25", K1: ix.k1, B: ix.b,
		Docs: len(lengths), Terms: len(live), Pairs: pairs, TotalLen: totalLen,
	}); err != nil {
		return nil, err
	}
	bw.FrontCoded("ids", &ids)
	bw.Uints("lengths", lengths)
	bw.Strings("terms", live)
	bw.Uints("df", df)
	bw.Uint32s("postoff", postOff)
	bw.Section("postings", posts)
	fr, err := bw.Build()
	runtime.KeepAlive(loaded) // terms viewed their columns until here
	if err != nil {
		return nil, err
	}
	return loadStatic(fr, nil)
}

// deltaTerm is one term of the delta with its postings.
type deltaTerm struct {
	term  string
	plist []posting
}

// mergePairs appends the (doc, freq) pairs of a and b, each ascending by
// doc and with no doc in both, to dst in one ascending order.
func mergePairs(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0], a[1]), a[2:]
		} else {
			dst, b = append(dst, b[0], b[1]), b[2:]
		}
	}
	return append(append(dst, a...), b...)
}

// Save writes the segment's bytes to w as a container file (deflated,
// see binfmt.Reader.WriteFile), which OpenFile opens.
func (z *Frozen) Save(w io.Writer) error {
	if err := z.seg.r.WriteFile(w); err != nil {
		return fmt.Errorf("invindex: write snapshot: %w", err)
	}
	return nil
}

// Index wraps the segment as a searchable index of its own (the segment
// shared, no tombstones, empty delta over a dictionary of its own) for
// reads pinned to the version it was sealed at, scoring with the segment's
// BM25 parameters.
func (z *Frozen) Index() *Index { return z.index(textutil.NewDict()) }

func (z *Frozen) index(d *textutil.Dict) *Index {
	seg := z.seg
	ix := NewWithDict(d)
	ix.k1, ix.b, ix.segTotalLen = seg.k1, seg.b, seg.totalLen
	ix.setSegs([]*part{newPart(z)})
	return ix
}

// OpenFile opens a snapshot file Save wrote as an index's one immutable
// segment, new writes layering into the mutable delta over the dictionary
// d, and returns the segment's postings transposed with it: the one pass
// that decodes every run to validate the file also lays the runs out by
// document.
func OpenFile(path string, d *textutil.Dict) (*Index, *Transposed, error) {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("invindex: %w", err)
	}
	tr := new(Transposed)
	base, err := loadStatic(fr, tr)
	if err != nil {
		return nil, nil, err
	}
	return newFrozen(base).index(d), tr, nil
}
