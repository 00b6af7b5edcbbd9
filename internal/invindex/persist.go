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

	c := columns{lengths: make([]uint32, 0, docs), df: make([]uint32, 0, len(dterms)), postOff: make([]uint32, 1, 1+len(dterms))}
	binfmt.MergeAscending(cols, dead, deltaIDs, func(src, row int, id string) {
		var l uint32
		if src == len(segs) {
			row = int(order[row])
			l = uint32(ix.lengths[row])
		} else {
			l = loaded[src].lengths.At(row)
		}
		remaps[src][row] = int32(len(c.lengths))
		c.addDoc(id, l)
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
		c.addRun(t, run)
	}
	seg, err := c.build(ix.k1, ix.b, nil)
	runtime.KeepAlive(loaded) // terms viewed their columns until here
	return seg, err
}

// columns are a segment's columns as a seal or Build fills them, documents
// in ID order and then terms in order (see staticSeg).
type columns struct {
	ids      binfmt.FrontCoder
	lengths  []uint32
	totalLen int64
	terms    []string // terms that keep at least one pair
	df       []uint32
	postOff  []uint32 // starts as {0}
	posts    []byte
	pairs    int
}

// addDoc appends the next document, of length l.
func (c *columns) addDoc(id string, l uint32) {
	c.ids.Add(id)
	c.lengths = append(c.lengths, l)
	c.totalLen += int64(l)
}

// addRun appends the next term with its pairs, unless it has none.
func (c *columns) addRun(term string, run []int32) {
	if len(run) == 0 {
		return
	}
	c.posts = appendRun(c.posts, run)
	c.terms = append(c.terms, term)
	c.df = append(c.df, uint32(len(run)/2))
	c.pairs += len(run) / 2
	c.postOff = append(c.postOff, uint32(len(c.posts)))
}

// build writes the columns into a container and loads it as a segment
// scoring with k1 and b; with tr, the load transposes its postings into
// tr.
func (c *columns) build(k1, b float64, tr *Transposed) (*staticSeg, error) {
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", staticMeta{
		Family: "bm25", K1: k1, B: b,
		Docs: len(c.lengths), Terms: len(c.terms), Pairs: c.pairs, TotalLen: c.totalLen,
	}); err != nil {
		return nil, err
	}
	bw.FrontCoded("ids", &c.ids)
	bw.Uints("lengths", c.lengths)
	bw.Strings("terms", c.terms)
	bw.Uints("df", c.df)
	bw.Uint32s("postoff", c.postOff)
	bw.Section("postings", c.posts)
	fr, err := bw.Build()
	if err != nil {
		return nil, err
	}
	return loadStatic(fr, tr)
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

// Build returns the index of the documents ids, ascending: document d
// has the length lengths[d] and the (term index, frequency) pairs docs[d],
// in any order, over terms, which ascend. The index is one sealed segment
// over the dictionary d, byte for byte the segment Freeze folds an index
// of the same documents into, and is returned with its postings
// transposed, as OpenFile returns them: for a segment no file holds. A
// term no document holds is left out.
func Build(d *textutil.Dict, terms, ids []string, lengths []uint32, docs [][]int32) (*Index, *Transposed, error) {
	if len(lengths) != len(ids) || len(docs) != len(ids) {
		return nil, nil, fmt.Errorf("invindex: build of %d IDs, %d lengths and %d documents", len(ids), len(lengths), len(docs))
	}
	// Each term's run, laid out by counting its pairs: the documents
	// ascend, so every run does.
	start := make([]int, len(terms)+1)
	for _, pairs := range docs {
		for j := 0; j < len(pairs); j += 2 {
			if t := pairs[j]; t < 0 || int(t) >= len(terms) {
				return nil, nil, fmt.Errorf("invindex: build: term index %d of %d terms", t, len(terms))
			}
			start[pairs[j]+1]++
		}
	}
	for t := range terms {
		start[t+1] += start[t]
	}
	next := slices.Clone(start[:len(terms)])
	runs := make([]int32, 2*start[len(terms)])
	c := columns{lengths: make([]uint32, 0, len(ids)), df: make([]uint32, 0, len(terms)), postOff: make([]uint32, 1, 1+len(terms))}
	for doc, pairs := range docs {
		c.addDoc(ids[doc], lengths[doc])
		for j := 0; j < len(pairs); j += 2 {
			at := next[pairs[j]]
			runs[2*at], runs[2*at+1] = int32(doc), pairs[j+1]
			next[pairs[j]]++
		}
	}
	for t, term := range terms {
		c.addRun(term, runs[2*start[t]:2*start[t+1]])
	}
	tr := new(Transposed)
	seg, err := c.build(defaultK1, defaultB, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("invindex: build: %w", err)
	}
	return newFrozen(seg).index(d), tr, nil
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
