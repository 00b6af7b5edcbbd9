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

// staticSeg is one set of column views over a sealed segment's container
// — the heap buffer Freeze built it in, or the mapping of the file that
// holds it (a Frozen switches from the first to the second, see Adopt).
// Documents and postings in a segment are never rewritten — deletions are
// tracked in the owning Index's baseDeleted bitmap, and new documents land
// in the mutable delta tier. Ordinals [0, n) are base documents; the
// delta's ordinals follow at n.
//
// Column layout:
//
//	meta     JSON: k1/b, doc/term/pair counts, total length
//	ids      string column, ordinal -> external ID (insertion order)
//	lengths  int32[n] token counts
//	idsort   uint32[n] ordinals sorted by ID, for binary-search lookups
//	terms    string column, sorted distinct terms
//	postidx  uint32[t+1] pair-range starts per term (document frequency)
//	postoff  uint32[t+1] byte offset of each term's run in postings
//	postings each term's (doc, freq) pairs in ascending doc order, in
//	         blocks of blockLen pairs (the last one short): a byte for the
//	         bit width of the doc gaps, a byte for the bit width of freq-1
//	         (0 when every frequency is 1), then the gaps and then the
//	         freq-1 values bit-packed LSB first, padded to a byte
//
// A gap is the doc minus the previous doc of the run (the first doc
// counts from -1), so it is at least 1.
type staticSeg struct {
	r *binfmt.Reader // pins the mapping for as long as the segment lives

	k1, b    float64
	n        int // document count
	totalLen int64

	ids     binfmt.StringCol
	lengths []int32
	idsort  []uint32
	terms   binfmt.StringCol
	postIdx []uint32
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
// as a base segment. Validation is exhaustive — the container's CRCs
// guarantee the bytes match what the writer produced, and this pass
// guarantees the columns are structurally sound (every postings run is
// decoded once), so a corrupt or hand-crafted file fails loudly at open
// rather than corrupting a search.
func loadStatic(r *binfmt.Reader) (*staticSeg, error) {
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
	if s.ids, err = r.Strings("ids"); err != nil {
		return nil, err
	}
	if s.lengths, err = r.Int32s("lengths"); err != nil {
		return nil, err
	}
	if s.idsort, err = r.Uint32s("idsort"); err != nil {
		return nil, err
	}
	if s.terms, err = r.Strings("terms"); err != nil {
		return nil, err
	}
	if s.postIdx, err = r.Uint32s("postidx"); err != nil {
		return nil, err
	}
	if s.postOff, err = r.Uint32s("postoff"); err != nil {
		return nil, err
	}
	if s.posts, err = r.Bytes("postings"); err != nil {
		return nil, err
	}
	if s.ids.Len() != meta.Docs || len(s.lengths) != meta.Docs || len(s.idsort) != meta.Docs {
		return nil, fmt.Errorf("invindex: snapshot document columns disagree (ids=%d lengths=%d idsort=%d docs=%d)",
			s.ids.Len(), len(s.lengths), len(s.idsort), meta.Docs)
	}
	if s.terms.Len() != meta.Terms || len(s.postIdx) != meta.Terms+1 || len(s.postOff) != meta.Terms+1 {
		return nil, fmt.Errorf("invindex: snapshot term columns disagree (terms=%d postidx=%d postoff=%d)", s.terms.Len(), len(s.postIdx), len(s.postOff))
	}
	// idsort must order ids strictly (which also proves it a permutation:
	// n in-range values with pairwise-distinct targets).
	for i, ord := range s.idsort {
		if int(ord) >= meta.Docs {
			return nil, fmt.Errorf("invindex: snapshot idsort[%d]=%d out of range", i, ord)
		}
		if i > 0 && bytes.Compare(s.ids.Bytes(int(s.idsort[i-1])), s.ids.Bytes(int(ord))) >= 0 {
			return nil, fmt.Errorf("invindex: snapshot idsort not strictly increasing at %d", i)
		}
	}
	// Terms must be sorted strictly for binary search.
	for i := 1; i < meta.Terms; i++ {
		if bytes.Compare(s.terms.Bytes(i-1), s.terms.Bytes(i)) >= 0 {
			return nil, fmt.Errorf("invindex: snapshot terms not strictly increasing at %d", i)
		}
	}
	var totalLen int64
	for i, l := range s.lengths {
		if l < 0 {
			return nil, fmt.Errorf("invindex: snapshot document %d has negative length", i)
		}
		totalLen += int64(l)
	}
	if totalLen != meta.TotalLen {
		return nil, fmt.Errorf("invindex: snapshot total length %d, meta says %d", totalLen, meta.TotalLen)
	}
	s.totalLen = totalLen
	if s.postIdx[0] != 0 || s.postOff[0] != 0 {
		return nil, fmt.Errorf("invindex: snapshot postidx or postoff does not start at 0")
	}
	if int(s.postIdx[meta.Terms]) != meta.Pairs || int(s.postOff[meta.Terms]) != len(s.posts) {
		return nil, fmt.Errorf("invindex: snapshot postidx ends at %d pairs and postoff at %d bytes, want %d and %d",
			s.postIdx[meta.Terms], s.postOff[meta.Terms], meta.Pairs, len(s.posts))
	}
	var buf []int32
	for ti := 0; ti < meta.Terms; ti++ {
		if s.postIdx[ti+1] < s.postIdx[ti] || s.postOff[ti+1] < s.postOff[ti] || int(s.postOff[ti+1]) > len(s.posts) {
			return nil, fmt.Errorf("invindex: snapshot postidx or postoff not monotonic at %d", ti+1)
		}
		if buf, err = s.pairs(ti, buf); err != nil {
			return nil, fmt.Errorf("invindex: snapshot postings of term %d: %w", ti, err)
		}
	}
	return s, nil
}

// pairs decodes term ti's run into buf (overwritten from its start) as
// interleaved (doc, freq) pairs, ascending by doc. It checks everything a
// corrupt section could break, so a run loadStatic decoded decodes the
// same way, without error, on every later call.
func (s *staticSeg) pairs(ti int, buf []int32) ([]int32, error) {
	return decodeRun(s.posts[s.postOff[ti]:s.postOff[ti+1]], int(s.postIdx[ti+1]-s.postIdx[ti]), s.n, buf[:0])
}

// appendRun appends the blocks of one term's run — pairs interleaved
// (doc, freq), docs ascending, frequencies positive — to dst.
func appendRun(dst []byte, pairs []int32) []byte {
	prev := int64(-1)
	for len(pairs) > 0 {
		blk := pairs[:min(len(pairs), 2*blockLen)]
		pairs = pairs[len(blk):]
		gw, fw := 0, 0
		for i, p := 0, prev; i < len(blk); i += 2 {
			gw = max(gw, bits.Len64(uint64(int64(blk[i])-p)))
			fw = max(fw, bits.Len32(uint32(blk[i+1]-1)))
			p = int64(blk[i])
		}
		dst = append(dst, byte(gw), byte(fw))
		var acc uint64 // fewer than 8 pending bits between puts
		nacc := 0
		put := func(v uint64, w int) {
			acc |= v << nacc
			for nacc += w; nacc >= 8; nacc -= 8 {
				dst, acc = append(dst, byte(acc)), acc>>8
			}
		}
		for i := 0; i < len(blk); i += 2 {
			put(uint64(int64(blk[i])-prev), gw)
			prev = int64(blk[i])
		}
		for i := 1; i < len(blk); i += 2 {
			put(uint64(uint32(blk[i]-1)), fw)
		}
		if nacc > 0 {
			dst = append(dst, byte(acc))
		}
	}
	return dst
}

// decodeRun decodes the count pairs appendRun wrote into src, appending
// them to dst. Every doc must lie in [0, n) above the one before it, every
// frequency fit an int32, and the blocks fill src exactly.
func decodeRun(src []byte, count, n int, dst []int32) ([]int32, error) {
	// One block's values (at most 64 bits a pair) and a word of slack, so
	// each load reads one word at an index the compiler can see is in range.
	var blk [blockLen*8 + 8]byte
	const last = blockLen*8 - 1
	doc := int64(-1)
	for count > 0 {
		cnt := min(count, blockLen)
		count -= cnt
		if len(src) < 2 {
			return dst, fmt.Errorf("block header truncated")
		}
		gw, fw := uint(src[0]), uint(src[1])
		if gw > 32 || fw > 32 {
			return dst, fmt.Errorf("bit widths %d/%d over 32", gw, fw)
		}
		end := 2 + (cnt*int(gw+fw)+7)/8
		if len(src) < end {
			return dst, fmt.Errorf("block of %d bytes truncated to %d", end, len(src))
		}
		copy(blk[:], src[2:end])
		src = src[end:]
		at := len(dst)
		dst = slices.Grow(dst, 2*cnt)[:at+2*cnt]
		gmask, fmask := uint64(1)<<gw-1, uint64(1)<<fw-1
		minGap, maxFreq, pos := uint64(math.MaxUint64), uint64(1), uint(0)
		out := dst[at:]
		for ; gw <= 28 && len(out) >= 4; out = out[4:] { // two gaps to a load
			v := binary.LittleEndian.Uint64(blk[pos>>3&last:]) >> (pos & 7)
			pos += 2 * gw
			g1, g2 := v&gmask, v>>gw&gmask
			minGap, doc = min(minGap, g1, g2), doc+int64(g1)
			out[0], out[1] = int32(doc), 1
			doc += int64(g2)
			out[2], out[3] = int32(doc), 1
		}
		for ; len(out) >= 2; out = out[2:] {
			gap := binary.LittleEndian.Uint64(blk[pos>>3&last:]) >> (pos & 7) & gmask
			pos += gw
			minGap, doc = min(minGap, gap), doc+int64(gap)
			out[0], out[1] = int32(doc), 1
		}
		for out := dst[at:]; fw > 0 && len(out) >= 2; out = out[2:] {
			f := binary.LittleEndian.Uint64(blk[pos>>3&last:])>>(pos&7)&fmask + 1
			pos += fw
			maxFreq = max(maxFreq, f)
			out[1] = int32(f)
		}
		// With every gap at least 1 the block ascends, so its last doc is
		// its largest.
		if minGap == 0 || doc >= int64(n) || maxFreq > math.MaxInt32 {
			return dst, fmt.Errorf("block ends at doc %d with a smallest gap of %d and a largest frequency of %d: docs must ascend below %d", doc, minGap, maxFreq, n)
		}
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("%d bytes after the last block", len(src))
	}
	return dst, nil
}

// findDoc returns the base ordinal of id, or -1. Allocation-free.
func (s *staticSeg) findDoc(id string) int32 {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if view(s.ids.Bytes(int(s.idsort[mid]))) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.n {
		ord := int32(s.idsort[lo])
		if view(s.ids.Bytes(int(ord))) == id {
			return ord
		}
	}
	return -1
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
