// Package seglist holds what the lake's segmented structures share: the
// BM25 index (invindex), the int8 vector index (vecindex) and the lake's
// catalog (datalake) are each a list of immutable segments, oldest first,
// then a mutable tail, whose rows take the ordinals in that order. Merge is
// the one policy that keeps a list short; Part the tombstones a list keeps
// over a segment other lists may share; Column resolves an ordinal to its
// ID; TopK keeps a search's best rows; Find maps an ordinal to its segment.
// Sizes, merges and ID columns come in as parameters: nothing here depends
// on which structure it serves.
package seglist

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/binfmt"
)

// Merge returns segs with add appended, then with the two newest merged
// while the newer's size is at least half the older's. Each segment then
// holds more than twice the one after it, so the list stays O(log n)
// long, and an element is copied into a new segment O(log n) times over
// the list's life. segs itself is unchanged, so a list handed out stays
// as it was.
func Merge[S any](segs []S, size func(S) int, merge func([]S) (S, error), add ...S) ([]S, error) {
	segs = append(segs[:len(segs):len(segs)], add...)
	for n := len(segs); n >= 2 && 2*size(segs[n-1]) >= size(segs[n-2]); n = len(segs) {
		merged, err := merge(segs[n-2:])
		if err != nil {
			return nil, err
		}
		segs = append(segs[:n-2:n-2], merged)
	}
	return segs, nil
}

// Find returns the index of the last of firsts, which ascend, that is at
// most ord: the segment holding ord when firsts are the segments' first
// ordinals. It returns -1 when ord lies before them all.
func Find(firsts []int, ord int) int { return sort.SearchInts(firsts, ord+1) - 1 }

// Part is the tombstones one list keeps over one of its segments, which
// other lists may share: deleting a row marks it dead here, never in the
// segment. A list's own part type embeds it next to its segment.
type Part struct {
	Dead  []bool
	Live  int
	First int // the ordinal of the segment's first row, set by Number
}

// NewPart returns the tombstones of a segment of n rows, every one live.
func NewPart(n int) Part { return Part{Dead: make([]bool, n), Live: n} }

// Delete tombstones the segment's row ord.
func (p *Part) Delete(ord int) { p.Dead[ord], p.Live = true, p.Live-1 }

// Clone returns a copy of the tombstones that deletes from p do not
// change: what a fork of the list keeps over the segment it shares.
func (p *Part) Clone() Part { return Part{Dead: slices.Clone(p.Dead), Live: p.Live, First: p.First} }

func (p *Part) part() *Part { return p }

// Parted is a part type that embeds Part.
type Parted interface{ part() *Part }

// Number numbers the rows of parts in list order, oldest first, and
// returns how many rows they hold, dead ones included (the tail's first
// ordinal), and how many of them are live.
func Number[P Parted](parts []P) (rows, live int) {
	for _, p := range parts {
		t := p.part()
		t.First = rows
		rows += len(t.Dead)
		live += t.Live
	}
	return rows, live
}

// Lookup returns the part whose segment holds id as a live row, and the
// row's ordinal in it, or -1; ids returns a part's ID column.
func Lookup[P Parted](parts []P, id string, ids func(P) binfmt.FrontCodedCol) (none P, ord int) {
	for _, p := range parts {
		if ord := ids(p).Find(id); ord >= 0 && !p.part().Dead[ord] {
			return p, ord
		}
	}
	return none, -1
}

// Column resolves the ordinals of one list to their IDs: a segment's from
// its front-coded ID column, whose rows ascend by ID, the tail's from its
// strings. Reset it for a list, then Add the list's segments, oldest
// first. A pooled Column keeps its buffers across lists.
type Column struct {
	firsts    []int // each segment's first ordinal
	cols      []binfmt.FrontCodedCol
	tailFirst int
	tail      []string
	buf, buf2 []byte // sealed IDs decoded for a tie or a hit
}

// Reset empties c for a list whose tail starts at ordinal tailFirst and
// holds the IDs tail. Reset(0, nil) drops every reference to the last
// list.
func (c *Column) Reset(tailFirst int, tail []string) {
	clear(c.cols)
	c.firsts, c.cols, c.tailFirst, c.tail = c.firsts[:0], c.cols[:0], tailFirst, tail
}

// Add appends a segment whose first ordinal is first and whose IDs are
// ids.
func (c *Column) Add(first int, ids binfmt.FrontCodedCol) {
	c.firsts = append(c.firsts, first)
	c.cols = append(c.cols, ids)
}

// seg returns the segment holding ord, -1 for the tail.
func (c *Column) seg(ord int32) int {
	if int(ord) >= c.tailFirst {
		return -1
	}
	return Find(c.firsts, int(ord))
}

// str returns ord's ID, of segment seg (-1: the tail): a sealed one is
// decoded into *buf and viewed.
func (c *Column) str(ord int32, seg int, buf *[]byte) string {
	if seg < 0 {
		return c.tail[int(ord)-c.tailFirst]
	}
	*buf = c.cols[seg].AppendAt((*buf)[:0], int(ord)-c.firsts[seg])
	return unsafe.String(unsafe.SliceData(*buf), len(*buf))
}

// compare compares the IDs of two ordinals. A segment's ordinals follow
// its IDs, so two rows of one segment compare as ordinals; other sealed
// IDs are decoded.
func (c *Column) compare(a, b int32) int {
	sa, sb := c.seg(a), c.seg(b)
	if sa == sb && sa >= 0 {
		return cmp.Compare(a, b)
	}
	return strings.Compare(c.str(a, sa, &c.buf), c.str(b, sb, &c.buf2))
}

// id returns ord's ID as a string of its own: a sealed one is copied out
// of its segment, a tail one is the tail's string.
func (c *Column) id(ord int32) string {
	if seg := c.seg(ord); seg >= 0 {
		return strings.Clone(c.str(ord, seg, &c.buf))
	}
	return c.tail[int(ord)-c.tailFirst]
}

// Hit is one search result; a higher Score is a closer match.
type Hit struct {
	ID    string
	Score float64
}

// scored is one candidate inside the heap.
type scored struct {
	ord   int32
	score float64
}

// TopK keeps the k best rows a search offers in a typed array min-heap,
// sifted by hand (container/heap would box every candidate), ties broken
// by ascending ID. It resolves IDs through IDs, which the caller fills
// for the list searched, only to break ties and for the k survivors. A
// pooled TopK keeps its array and IDs' buffers across searches.
type TopK struct {
	IDs Column
	k   int
	h   []scored
}

// Reset empties the heap for a search keeping the k best, k > 0, of at
// most n rows; it leaves IDs as they are. The heap is sized for
// min(k, n) at once.
func (t *TopK) Reset(k, n int) {
	t.k, t.h = k, slices.Grow(t.h[:0], min(k, n))
}

// Offer considers row ord at score. A row below a full heap's minimum
// returns here, before any call: most rows of a scan do.
func (t *TopK) Offer(ord int32, score float64) {
	if len(t.h) == t.k && score < t.h[0].score {
		return
	}
	t.offer(scored{ord: ord, score: score})
}

// worse reports whether a ranks strictly below b: lower score, or equal
// score and the larger ID.
func (t *TopK) worse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return t.IDs.compare(a.ord, b.ord) > 0
}

func (t *TopK) offer(c scored) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !t.worse(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if !t.worse(t.h[0], c) {
		return
	}
	t.h[0] = c
	t.siftDown()
}

func (t *TopK) siftDown() {
	h := t.h
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h) && t.worse(h[l], h[min]) {
			min = l
		}
		if r < len(h) && t.worse(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Hits empties the heap into hits ordered best first, ties by ascending
// ID.
func (t *TopK) Hits() []Hit {
	out := make([]Hit, len(t.h))
	for i := len(out) - 1; i >= 0; i-- {
		top := t.h[0]
		out[i] = Hit{ID: t.IDs.id(top.ord), Score: top.score}
		t.h[0], t.h = t.h[len(t.h)-1], t.h[:len(t.h)-1]
		t.siftDown()
	}
	return out
}
