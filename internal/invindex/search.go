package invindex

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Hit is one search result.
type Hit struct {
	// ID is the external document ID.
	ID string
	// Score is the BM25 score (higher is better).
	Score float64
}

// Search returns the top-k documents for query by BM25 score, ties broken by
// ascending ID for determinism. k <= 0 returns nil. The query is analyzed
// through the index's dictionary, which it leaves as it was.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchTerms(ix.dict.AppendTerms(nil, query), k)
}

// searchScratch holds every buffer SearchTerms needs, pooled so the steady
// path performs no per-query allocations: query terms and weights, each
// segment's decoded pairs of one term, a dense per-ordinal score
// accumulator reset via the touched list, the top-k heap, and sealed IDs
// decoded for a tie or a hit. scores entries are zero except between
// scoring and reset. segs are the column views the search loaded, one per
// segment, set for the search only.
type searchScratch struct {
	terms   []string
	qw      []float64
	runs    [][]int32
	scores  []float64
	touched []int32
	heap    []scoredDoc
	id, id2 []byte
	segs    []*staticSeg
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// scoredDoc pairs a global document ordinal with its score inside the
// top-k heap.
type scoredDoc struct {
	doc   int32
	score float64
}

// SearchTerms is Search over pre-analyzed query terms.
//
// The steady path is allocation-free apart from the returned slice (and,
// for hits resolved from a segment, materializing their ID strings):
// scoring uses pooled scratch buffers, the heap is sifted manually, and a
// tie between two documents of one segment compares their ordinals.
func (ix *Index) SearchTerms(terms []string, k int) []Hit {
	if k <= 0 || len(terms) == 0 {
		return nil
	}

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nLive := ix.liveDocs + ix.segLive
	if nLive == 0 {
		return nil
	}
	nOrds := ix.segDocs + len(ix.ids)
	avgdl := float64(ix.totalLen+ix.segTotalLen) / float64(nLive)
	n := float64(nLive)

	sc := scratchPool.Get().(*searchScratch)
	for _, p := range ix.segs {
		sc.segs = append(sc.segs, p.z.cols.Load())
	}
	for len(sc.runs) < len(sc.segs) {
		sc.runs = append(sc.runs, nil)
	}
	runs := sc.runs[:len(sc.segs)]

	// Collapse duplicate query terms; BM25 treats repeated query terms as
	// multiplied weight. Terms are then scored in sorted order: per-doc
	// score accumulation is floating-point addition, which is not
	// associative, so unordered iteration would make the same query score
	// the same document differently across calls (a last-ULP flicker that
	// can reorder near-tied rankings).
	sc.terms = append(sc.terms[:0], terms...)
	slices.Sort(sc.terms)
	sc.qw = sc.qw[:0]
	w := 0
	for i := 0; i < len(sc.terms); {
		j := i + 1
		for j < len(sc.terms) && sc.terms[j] == sc.terms[i] {
			j++
		}
		sc.terms[w] = sc.terms[i]
		sc.qw = append(sc.qw, float64(j-i))
		w++
		i = j
	}
	sc.terms = sc.terms[:w]

	// Dense score accumulator indexed by global ordinal; entries are
	// always zero outside the scoring window, and every live BM25
	// contribution is positive, so zero doubles as "untouched".
	if len(sc.scores) < nOrds {
		sc.scores = make([]float64, nOrds)
	}
	scores, touched := sc.scores, sc.touched[:0]

	for ti, t := range sc.terms {
		qw := sc.qw[ti]
		// Live document frequency for IDF, summed over the segments and
		// the delta. Tombstoned postings still appear in the lists but are
		// skipped below; df counts live documents only.
		df := 0
		for i, seg := range sc.segs {
			runs[i] = runs[i][:0]
			if bt := seg.findTerm(t); bt >= 0 {
				// loadStatic decoded this run without error, and a
				// segment's bytes never change.
				runs[i], _ = seg.pairs(bt, runs[i])
				dead := ix.segs[i].dead
				for j := 0; j < len(runs[i]); j += 2 {
					if !dead[runs[i][j]] {
						df++
					}
				}
			}
		}
		plist := ix.deltaPostings(t)
		for _, p := range plist {
			if !ix.deleted[p.doc] {
				df++
			}
		}
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
		for i, run := range runs {
			p, seg := ix.segs[i], sc.segs[i]
			for j := 0; j < len(run); j += 2 {
				doc := run[j]
				if p.dead[doc] {
					continue
				}
				ord := int32(p.first) + doc
				tf := float64(run[j+1])
				dl := float64(seg.lengths[doc])
				norm := tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgdl))
				if scores[ord] == 0 {
					touched = append(touched, ord)
				}
				scores[ord] += qw * idf * norm
			}
		}
		for _, p := range plist {
			if ix.deleted[p.doc] {
				continue
			}
			ord := int32(ix.segDocs) + p.doc
			tf := float64(p.freq)
			dl := float64(ix.lengths[p.doc])
			norm := tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgdl))
			if scores[ord] == 0 {
				touched = append(touched, ord)
			}
			scores[ord] += qw * idf * norm
		}
	}

	var out []Hit
	if len(touched) > 0 {
		out = ix.topK(scores, touched, k, sc)
	}
	runtime.KeepAlive(sc.segs) // IDs were decoded from their mappings

	// Reset the accumulator via the touched list and recycle the scratch.
	for _, ord := range touched {
		scores[ord] = 0
	}
	sc.touched = touched[:0]
	clear(sc.segs)
	sc.segs = sc.segs[:0]
	scratchPool.Put(sc)
	return out
}

// segOf returns the index of the segment holding global ordinal ord, -1
// for the delta.
func (ix *Index) segOf(ord int32) int {
	if int(ord) >= ix.segDocs {
		return -1
	}
	lo, hi := 0, len(ix.segs) // the last segment starting at or before ord
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int32(ix.segs[mid].first) <= ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// idOf returns the external ID of ordinal ord of segment seg (-1: the
// delta): a sealed one is decoded into buf, which is returned grown, and
// viewed.
func (ix *Index) idOf(sc *searchScratch, ord int32, seg int, buf []byte) (string, []byte) {
	if seg < 0 {
		return ix.ids[int(ord)-ix.segDocs], buf
	}
	buf = sc.segs[seg].ids.AppendAt(buf[:0], int(ord)-ix.segs[seg].first)
	return view(buf), buf
}

// cmpIDs compares the external IDs of two global ordinals. A segment's
// ordinals follow its IDs, so two documents of one segment compare as
// ordinals; other sealed IDs are decoded.
func (ix *Index) cmpIDs(sc *searchScratch, a, b int32) int {
	sa, sb := ix.segOf(a), ix.segOf(b)
	if sa == sb && sa >= 0 {
		return cmp.Compare(a, b)
	}
	var x, y string
	x, sc.id = ix.idOf(sc, a, sa, sc.id)
	y, sc.id2 = ix.idOf(sc, b, sb, sc.id2)
	return strings.Compare(x, y)
}

// ordID materializes the external ID of a global ordinal. Delta IDs are
// returned without copying; sealed IDs allocate one string (only the k
// returned hits pay this).
func (ix *Index) ordID(sc *searchScratch, ord int32) string {
	seg := ix.segOf(ord)
	id, buf := ix.idOf(sc, ord, seg, sc.id)
	sc.id = buf
	if seg >= 0 {
		return string(buf)
	}
	return id
}

// worse reports whether hit a ranks strictly below hit b: lower score, or
// equal score and lexicographically larger ID (so the min-heap keeps the
// smaller IDs on ties, matching the output order's ascending-ID rule).
func (ix *Index) worse(sc *searchScratch, a, b scoredDoc) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return ix.cmpIDs(sc, a.doc, b.doc) > 0
}

// topK selects the k best touched ordinals with a manually-sifted bounded
// min-heap (container/heap would box every element) and returns them best
// first. Caller must hold at least a read lock.
func (ix *Index) topK(scores []float64, touched []int32, k int, sc *searchScratch) []Hit {
	h := sc.heap[:0]
	for _, ord := range touched {
		cand := scoredDoc{doc: ord, score: scores[ord]}
		if len(h) < k {
			h = append(h, cand)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !ix.worse(sc, h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if ix.worse(sc, cand, h[0]) {
			continue
		}
		h[0] = cand
		ix.siftDown(sc, h, 0)
	}
	out := make([]Hit, len(h))
	// Pop ascending; fill the output back to front for best-first order.
	for i := len(h) - 1; i >= 0; i-- {
		top := h[0]
		out[i] = Hit{ID: ix.ordID(sc, top.doc), Score: top.score}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		ix.siftDown(sc, h, 0)
	}
	sc.heap = h[:0]
	return out
}

func (ix *Index) siftDown(sc *searchScratch, h []scoredDoc, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && ix.worse(sc, h[l], h[min]) {
			min = l
		}
		if r < len(h) && ix.worse(sc, h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
