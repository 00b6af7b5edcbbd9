package invindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/binfmt"
)

// staticSeg is one set of column views over a sealed segment's container:
// the one a seal built, or the one OpenFile inflated from a file (which
// holds it deflated, see binfmt.Reader.WriteFile).
// Documents and postings in a segment are never rewritten — deletions are
// tracked in each owning Index's tombstones over it, and new documents land
// in the mutable delta.
//
// Ordinals follow the documents' IDs in ascending order, so two documents
// of one segment tied on score compare as ordinals. Column layout:
//
//	meta     JSON: k1/b, doc/term/pair counts, total length
//	ids      front-coded string column (binfmt.FrontCoder), ordinal ->
//	         external ID, ascending
//	lengths  token counts, one a document, at 1, 2 or 4 bytes each
//	         (binfmt.Writer.Uints)
//	terms    string column, sorted distinct terms
//	df       each term's document frequency, its run's pair count, at 1,
//	         2 or 4 bytes each
//	postoff  uint32[t+1] byte offset of each term's run in postings
//	postings each term's (doc, freq) pairs in ascending doc order, in
//	         blocks of blockLen pairs (the last one short), bit-packed
//	         LSB first and padded to a byte
//
// A gap is the doc minus the previous doc of the run (the first doc
// counts from -1), so it is at least 1, and a block stores gap-1 and
// freq-1. It stores every gap-1 at a base width gw; the few that need
// more bits are exceptions, whose high bits are patched in as the block
// is unpacked (patched frame of reference, PFOR). A block is:
//
//	byte     gw, plus 0x80 when the block has exceptions
//	byte     fw, the bit width of freq-1 (0 when every frequency is 1)
//	byte     (with exceptions) their count x, 1 to the block's pairs
//	byte     (with exceptions) the bit width xw of their high bits;
//	         gw+xw is at most 32
//	x bytes  (with exceptions) their positions in the block, ascending
//	bits     every gap-1's low gw bits, then every freq-1 at fw bits,
//	         then each exception's high bits (gap-1 >> gw, nonzero) at
//	         xw bits, LSB first and padded to a byte
//
// The encoder picks the gw that makes the block smallest.
type staticSeg struct {
	r *binfmt.Reader // pins the container for as long as the segment lives

	k1, b    float64
	n        int // document count
	totalLen int64

	ids     binfmt.FrontCodedCol
	lengths binfmt.UintCol
	terms   binfmt.StringCol
	df      binfmt.UintCol
	postOff []uint32
	posts   []byte
}

// blockLen is the number of pairs in a full postings block.
const blockLen = 128

// staticMeta is the JSON "meta" section of a BM25 snapshot.
type staticMeta struct {
	Family   string  `json:"family"`
	K1       float64 `json:"k1"`
	B        float64 `json:"b"`
	Docs     int     `json:"docs"`
	Terms    int     `json:"terms"`
	Pairs    int     `json:"pairs"`
	TotalLen int64   `json:"total_len"`
}

// loadStatic validates a binfmt container as a BM25 snapshot and wraps it
// as a segment. Validation is exhaustive — the container's CRCs
// guarantee the bytes match what the writer produced, and this pass
// guarantees the columns are structurally sound (every postings run is
// decoded once), so a corrupt or hand-crafted file fails loudly at open
// rather than corrupting a search. With tr, the decoded runs are also
// transposed into it, and a document with more distinct terms than its
// length fails the open too.
func loadStatic(r *binfmt.Reader, tr *Transposed) (*staticSeg, error) {
	var meta staticMeta
	if err := r.JSON("meta", &meta); err != nil {
		return nil, err
	}
	if meta.Family != "bm25" {
		return nil, fmt.Errorf("invindex: snapshot family %q, want %q", meta.Family, "bm25")
	}
	if meta.Docs < 0 || meta.Terms < 0 || meta.Pairs < 0 {
		return nil, fmt.Errorf("invindex: snapshot has negative counts (docs=%d terms=%d pairs=%d)", meta.Docs, meta.Terms, meta.Pairs)
	}
	if math.IsNaN(meta.K1) || math.IsInf(meta.K1, 0) || math.IsNaN(meta.B) || math.IsInf(meta.B, 0) {
		return nil, fmt.Errorf("invindex: snapshot has non-finite BM25 parameters")
	}
	s := &staticSeg{r: r, k1: meta.K1, b: meta.B, n: meta.Docs}
	var err error
	if s.ids, err = r.FrontCoded("ids"); err != nil {
		return nil, err
	}
	if s.lengths, err = r.Uints("lengths", meta.Docs); err != nil {
		return nil, err
	}
	if s.terms, err = r.Strings("terms"); err != nil {
		return nil, err
	}
	if s.df, err = r.Uints("df", meta.Terms); err != nil {
		return nil, err
	}
	if s.postOff, err = r.Uint32s("postoff"); err != nil {
		return nil, err
	}
	if s.posts, err = r.Bytes("postings"); err != nil {
		return nil, err
	}
	if s.ids.Len() != meta.Docs {
		return nil, fmt.Errorf("invindex: snapshot holds %d IDs for %d documents", s.ids.Len(), meta.Docs)
	}
	if s.terms.Len() != meta.Terms || len(s.postOff) != meta.Terms+1 {
		return nil, fmt.Errorf("invindex: snapshot term columns disagree (terms=%d postoff=%d, want %d and %d)", s.terms.Len(), len(s.postOff), meta.Terms, meta.Terms+1)
	}
	// Terms must be sorted strictly for binary search.
	for i := 1; i < meta.Terms; i++ {
		if bytes.Compare(s.terms.Bytes(i-1), s.terms.Bytes(i)) >= 0 {
			return nil, fmt.Errorf("invindex: snapshot terms not strictly increasing at %d", i)
		}
	}
	var totalLen int64
	for i := range meta.Docs {
		l := s.lengths.At(i)
		if l > math.MaxInt32 {
			return nil, fmt.Errorf("invindex: snapshot document %d has length %d, past int32", i, l)
		}
		totalLen += int64(l)
	}
	if totalLen != meta.TotalLen {
		return nil, fmt.Errorf("invindex: snapshot total length %d, meta says %d", totalLen, meta.TotalLen)
	}
	s.totalLen = totalLen
	if s.postOff[0] != 0 || int(s.postOff[meta.Terms]) != len(s.posts) {
		return nil, fmt.Errorf("invindex: snapshot postoff runs from %d to %d, want 0 to %d", s.postOff[0], s.postOff[meta.Terms], len(s.posts))
	}
	if tr != nil {
		tr.init(s)
	}
	var buf []int32
	pairs := 0
	for ti := 0; ti < meta.Terms; ti++ {
		if s.postOff[ti+1] < s.postOff[ti] || int(s.postOff[ti+1]) > len(s.posts) {
			return nil, fmt.Errorf("invindex: snapshot postoff not monotonic at %d", ti+1)
		}
		if df := int(s.df.At(ti)); df == 0 || df > meta.Pairs-pairs {
			return nil, fmt.Errorf("invindex: snapshot term %d has %d pairs, %d of the %d left", ti, df, meta.Pairs-pairs, meta.Pairs)
		} else {
			pairs += df
		}
		if buf, err = s.pairs(ti, buf); err != nil {
			return nil, fmt.Errorf("invindex: snapshot postings of term %d: %w", ti, err)
		}
		if tr != nil {
			if err := tr.add(ti, buf); err != nil {
				return nil, err
			}
		}
	}
	if pairs != meta.Pairs {
		return nil, fmt.Errorf("invindex: snapshot terms hold %d pairs, meta says %d", pairs, meta.Pairs)
	}
	return s, nil
}

// pairs decodes term ti's run into buf (overwritten from its start) as
// interleaved (doc, freq) pairs, ascending by doc. It checks everything a
// corrupt section could break, so a run loadStatic decoded decodes the
// same way, without error, on every later call.
func (s *staticSeg) pairs(ti int, buf []int32) ([]int32, error) {
	return decodeRun(s.posts[s.postOff[ti]:s.postOff[ti+1]], int(s.df.At(ti)), s.n, buf[:0])
}

// appendRun appends the blocks of one term's run — pairs interleaved
// (doc, freq), docs ascending, frequencies positive — to dst, each block
// at the base width that makes it smallest.
func appendRun(dst []byte, pairs []int32) []byte {
	var gaps [blockLen]uint32
	prev := int64(-1)
	for len(pairs) > 0 {
		blk := pairs[:min(len(pairs), 2*blockLen)]
		pairs = pairs[len(blk):]
		for i := 0; i < len(blk); i += 2 {
			gaps[i/2] = uint32(int64(blk[i]) - prev - 1)
			prev = int64(blk[i])
		}
		g := gaps[:len(blk)/2]
		dst = appendBlock(dst, g, blk, baseWidth(g, blk))
	}
	return dst
}

// baseWidth returns the base width that encodes a block of gaps (each
// gap-1) and pairs in the fewest bytes, from a histogram of the gaps' bit
// lengths; of two widths as small, the wider, which has fewer exceptions.
func baseWidth(gaps []uint32, pairs []int32) uint {
	var hist [33]int
	var gbits, fbits uint32
	for i, g := range gaps {
		hist[bits.Len32(g)]++
		gbits |= g
		fbits |= uint32(pairs[2*i+1] - 1)
	}
	// The widest of some values is as wide as all of them ORed together.
	top, fw := bits.Len32(gbits), bits.Len32(fbits)
	best, bestBytes, exc := top, math.MaxInt, 0
	// A narrower width has no fewer exceptions, and a block with exc of
	// them takes at least 4+exc bytes.
	for gw := top; gw >= 0 && 4+exc < bestBytes; gw-- {
		size := 2 + (len(gaps)*(gw+fw)+7)/8
		if exc > 0 {
			size = 4 + exc + (len(gaps)*(gw+fw)+exc*(top-gw)+7)/8
		}
		if size < bestBytes {
			best, bestBytes = gw, size
		}
		exc += hist[gw]
	}
	return uint(best)
}

// appendBlock appends one block of the gaps (each gap-1) and the
// frequencies of pairs to dst, at base width gw: a gap-1 wider than gw is
// an exception.
func appendBlock(dst []byte, gaps []uint32, pairs []int32, gw uint) []byte {
	// The widest of some values is as wide as all of them ORed together.
	var gbits, fbits uint32
	for i, g := range gaps {
		gbits |= g
		fbits |= uint32(pairs[2*i+1] - 1)
	}
	fw, xw := uint(bits.Len32(fbits)), uint(max(bits.Len32(gbits)-int(gw), 0))
	if xw > 0 {
		dst = append(dst, byte(gw)|0x80, byte(fw), 0, byte(xw))
		at := len(dst)
		for i, g := range gaps {
			if g>>gw != 0 {
				dst = append(dst, byte(i))
			}
		}
		dst[at-2] = byte(len(dst) - at)
	} else {
		dst = append(dst, byte(gw), byte(fw))
	}
	var acc uint64 // fewer than 8 pending bits between puts
	nacc := uint(0)
	put := func(v uint64, w uint) {
		acc |= v << nacc
		for nacc += w; nacc >= 8; nacc -= 8 {
			dst, acc = append(dst, byte(acc)), acc>>8
		}
	}
	low := uint64(1)<<gw - 1
	for _, g := range gaps {
		put(uint64(g)&low, gw)
	}
	for i := 1; i < len(pairs); i += 2 {
		put(uint64(uint32(pairs[i]-1)), fw)
	}
	for _, g := range gaps {
		if hi := g >> gw; hi != 0 {
			put(uint64(hi), xw)
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// decodeRun decodes the count pairs appendRun wrote into src, appending
// them to dst. Every doc must lie below n, every frequency fit an int32,
// every exception be where its block can hold it, and the blocks fill src
// exactly.
func decodeRun(src []byte, count, n int, dst []int32) ([]int32, error) {
	// One block's bits (at most 64 a pair: gw+fw, or gw+xw+fw for an
	// exception) and a word of slack, so each load reads one word at an
	// index the compiler can see is in range.
	var blk [blockLen*8 + 8]byte
	const last = blockLen*8 - 1
	var hi [blockLen]uint32 // the high bits of a block's exceptions, by position
	doc := int64(-1)
	for count > 0 {
		cnt := min(count, blockLen)
		count -= cnt
		if len(src) < 2 {
			return dst, fmt.Errorf("block header truncated")
		}
		gw, fw, xw, hdr := uint(src[0]&0x7f), uint(src[1]), uint(0), 2
		var xpos []byte // the exceptions' positions, ascending
		if src[0]&0x80 != 0 {
			if len(src) < 4 {
				return dst, fmt.Errorf("block header truncated")
			}
			exc := int(src[2])
			if exc == 0 || exc > cnt {
				return dst, fmt.Errorf("%d exceptions in a block of %d pairs", exc, cnt)
			}
			if xw = uint(src[3]); xw == 0 || gw+xw > 32 {
				return dst, fmt.Errorf("exception bit width %d over a base of %d", xw, gw)
			}
			if hdr = 4 + exc; len(src) < hdr {
				return dst, fmt.Errorf("block header truncated")
			}
			xpos = src[4:hdr]
		}
		if gw > 32 || fw > 32 {
			return dst, fmt.Errorf("bit widths %d/%d over 32", gw, fw)
		}
		end := hdr + (cnt*int(gw+fw)+len(xpos)*int(xw)+7)/8
		if len(src) < end {
			return dst, fmt.Errorf("block of %d bytes truncated to %d", end, len(src))
		}
		copy(blk[:], src[hdr:end])
		src = src[end:]
		at := len(dst)
		dst = slices.Grow(dst, 2*cnt)[:at+2*cnt]
		gmask, fmask, xmask := uint64(1)<<gw-1, uint64(1)<<fw-1, uint64(1)<<xw-1
		// pos reads the gaps' low bits, then the frequencies; hpos the
		// exceptions' high bits, which follow.
		maxFreq, pos, hpos := uint64(1), uint(0), uint(cnt)*(gw+fw)
		// Each exception's high bits go in hi at its position, and every
		// gap is patched as it is unpacked; the positions are zeroed again
		// once the block is done.
		prev := -1
		for _, p := range xpos {
			high := binary.LittleEndian.Uint64(blk[hpos>>3&last:]) >> (hpos & 7) & xmask
			hpos += xw
			if int(p) <= prev || int(p) >= cnt || high == 0 {
				return dst, fmt.Errorf("exception at %d (high bits %d) after one at %d in a block of %d pairs", p, high, prev, cnt)
			}
			hi[p&(blockLen-1)], prev = uint32(high), int(p)
		}
		out, j := dst[at:], 0
		for ; gw <= 28 && len(out) >= 4; j, out = j+2, out[4:] { // two gaps to a load
			v := binary.LittleEndian.Uint64(blk[pos>>3&last:]) >> (pos & 7)
			pos += 2 * gw
			doc += int64(v&gmask|uint64(hi[j&(blockLen-1)])<<gw) + 1
			out[0], out[1] = int32(doc), 1
			doc += int64(v>>gw&gmask|uint64(hi[(j+1)&(blockLen-1)])<<gw) + 1
			out[2], out[3] = int32(doc), 1
		}
		for ; len(out) >= 2; j, out = j+1, out[2:] {
			doc += int64(binary.LittleEndian.Uint64(blk[pos>>3&last:])>>(pos&7)&gmask|uint64(hi[j&(blockLen-1)])<<gw) + 1
			pos += gw
			out[0], out[1] = int32(doc), 1
		}
		for _, p := range xpos {
			hi[p&(blockLen-1)] = 0
		}
		for out := dst[at:]; fw > 0 && len(out) >= 2; out = out[2:] {
			f := binary.LittleEndian.Uint64(blk[pos>>3&last:])>>(pos&7)&fmask + 1
			pos += fw
			maxFreq = max(maxFreq, f)
			out[1] = int32(f)
		}
		// With every gap at least 1 the block ascends, so its last doc is
		// its largest (a doc past int32 included, which the int32 views
		// above wrapped).
		if doc >= int64(n) || maxFreq > math.MaxInt32 {
			return dst, fmt.Errorf("block ends at doc %d with a largest frequency of %d: docs must lie below %d", doc, maxFreq, n)
		}
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("%d bytes after the last block", len(src))
	}
	return dst, nil
}

// Transposed is a segment's postings turned around: by document, the
// distinct terms each was indexed with and their frequencies. Document d
// is segment ordinal d, so the documents ascend by ID, and a document's terms
// ascend as the term column does.
type Transposed struct {
	// IDs is the segment's ID column, ordinal -> ID.
	IDs binfmt.FrontCodedCol
	// Terms is the segment's term column, term index -> term.
	Terms binfmt.StringCol

	seg *staticSeg // holds the bytes the columns view
	// Document d's pairs are pairs[2*start[d] : 2*end[d]], and its length
	// bounds them at start[d+1]; start has one entry more than end.
	start, end []int
	pairs      []int32
}

// Len returns the number of documents.
func (t *Transposed) Len() int { return len(t.end) }

// Doc returns document d's terms as interleaved (term index, frequency)
// pairs, term indexes ascending.
func (t *Transposed) Doc(d int) []int32 { return t.pairs[2*t.start[d] : 2*t.end[d]] }

// DocLen returns document d's length, its token count.
func (t *Transposed) DocLen(d int) int { return t.start[d+1] - t.start[d] }

// init lays t out for segment s: its columns, and room for each document
// to hold as many distinct terms as its length, which no document can
// exceed, so no counting pass is needed.
func (t *Transposed) init(s *staticSeg) {
	*t = Transposed{IDs: s.ids, Terms: s.terms, seg: s, start: make([]int, s.n+1), end: make([]int, s.n)}
	slots := 0
	for d := range s.n {
		t.start[d], t.end[d] = slots, slots
		slots += int(s.lengths.At(d))
	}
	t.start[s.n] = slots
	t.pairs = make([]int32, 2*slots)
}

// add files term ti's decoded run under each of its documents; terms must
// come in ascending order.
func (t *Transposed) add(ti int, run []int32) error {
	for i := 0; i < len(run); i += 2 {
		d := run[i]
		at := t.end[d]
		if at == t.start[d+1] {
			return fmt.Errorf("invindex: document %d has more terms than its length %d", d, at-t.start[d])
		}
		t.pairs[2*at], t.pairs[2*at+1] = int32(ti), run[i+1]
		t.end[d]++
	}
	return nil
}

// findTerm returns the term index of t, or -1. Allocation-free: the
// comparison walks the term blob directly.
func (s *staticSeg) findTerm(t string) int {
	lo, hi := 0, s.terms.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if view(s.terms.Bytes(mid)) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.terms.Len() && view(s.terms.Bytes(lo)) == t {
		return lo
	}
	return -1
}

// view is b as a string without a copy, for comparisons and sorting keys
// while the segment that holds b stays alive.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
