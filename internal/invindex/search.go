package invindex

import (
	"math"
	"runtime"
	"slices"
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
// ascending ID for determinism. k <= 0 returns nil.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchTerms(ix.analyze(query), k)
}

// Analyze runs the index's analysis chain over text, for callers that fan
// one query out across many shards and want to tokenize it only once (pair
// with SearchTerms).
func (ix *Index) Analyze(text string) []string { return ix.analyze(text) }

// searchScratch holds every buffer SearchTerms needs, pooled so the steady
// path performs no per-query allocations: query terms and weights, one
// base term's decoded pairs, a dense per-ordinal score accumulator reset
// via the touched list, and the top-k heap. scores entries are zero except
// between scoring and reset.
type searchScratch struct {
	terms   []string
	qw      []float64
	pairs   []int32
	scores  []float64
	touched []int32
	heap    []scoredDoc
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
// for hits resolved from an mmap'd base segment, materializing their ID
// strings): scoring uses pooled scratch buffers, the heap is sifted
// manually, and ID tie-breaks compare bytes in place.
func (ix *Index) SearchTerms(terms []string, k int) []Hit {
	if k <= 0 || len(terms) == 0 {
		return nil
	}

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nLive := ix.liveDocs + ix.baseLive
	if nLive == 0 {
		return nil
	}
	base := ix.baseSeg()
	baseN := ix.baseLen()
	nOrds := baseN + len(ix.ids)
	avgdl := float64(ix.totalLen+ix.baseTotalLen) / float64(nLive)
	n := float64(nLive)

	sc := scratchPool.Get().(*searchScratch)

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
		var basePairs []int32
		if base != nil {
			if bt := base.findTerm(t); bt >= 0 {
				// loadStatic decoded this run without error, and a
				// segment's bytes never change.
				sc.pairs, _ = base.pairs(bt, sc.pairs)
				basePairs = sc.pairs
			}
		}
		plist := ix.postings[t]
		if len(basePairs) == 0 && len(plist) == 0 {
			continue
		}
		// Live document frequency for IDF. Tombstoned postings still
		// appear in the lists but are skipped below; df uses live count.
		df := 0
		for i := 0; i+1 < len(basePairs); i += 2 {
			if !ix.baseDeleted[basePairs[i]] {
				df++
			}
		}
		for _, p := range plist {
			if !ix.deleted[p.doc] {
				df++
			}
		}
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
		for i := 0; i+1 < len(basePairs); i += 2 {
			doc := basePairs[i]
			if ix.baseDeleted[doc] {
				continue
			}
			tf := float64(basePairs[i+1])
			dl := float64(base.lengths[doc])
			norm := tf * (ix.k1 + 1) / (tf + ix.k1*(1-ix.b+ix.b*dl/avgdl))
			if scores[doc] == 0 {
				touched = append(touched, doc)
			}
			scores[doc] += qw * idf * norm
		}
		for _, p := range plist {
			if ix.deleted[p.doc] {
				continue
			}
			ord := int32(baseN) + p.doc
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
		out = ix.topK(base, scores, touched, k, sc)
	}
	runtime.KeepAlive(base) // ID tie-breaks compared views of its mapping

	// Reset the accumulator via the touched list and recycle the scratch.
	for _, ord := range touched {
		scores[ord] = 0
	}
	sc.touched = touched[:0]
	scratchPool.Put(sc)
	return out
}

// ordIDView returns the external ID of a global ordinal without a copy,
// for tie-break comparisons. base is the segment the search loaded: the
// caller keeps it alive past the last use of the view.
func (ix *Index) ordIDView(base *staticSeg, ord int32) string {
	if int(ord) < ix.baseLen() {
		return view(base.ids.Bytes(int(ord)))
	}
	return ix.ids[int(ord)-ix.baseLen()]
}

// ordID materializes the external ID of a global ordinal. Delta IDs are
// returned without copying; base IDs allocate one string (only the k
// returned hits pay this).
func (ix *Index) ordID(base *staticSeg, ord int32) string {
	if int(ord) < ix.baseLen() {
		return base.ids.At(int(ord))
	}
	return ix.ids[int(ord)-ix.baseLen()]
}

// baseLen is the base tier's document count (its tombstone bitmap covers
// every base ordinal).
func (ix *Index) baseLen() int { return len(ix.baseDeleted) }

// worse reports whether hit a ranks strictly below hit b: lower score, or
// equal score and lexicographically larger ID (so the min-heap keeps the
// smaller IDs on ties, matching the output order's ascending-ID rule).
func (ix *Index) worse(base *staticSeg, a, b scoredDoc) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return ix.ordIDView(base, a.doc) > ix.ordIDView(base, b.doc)
}

// topK selects the k best touched ordinals with a manually-sifted bounded
// min-heap (container/heap would box every element) and returns them best
// first. Caller must hold at least a read lock.
func (ix *Index) topK(base *staticSeg, scores []float64, touched []int32, k int, sc *searchScratch) []Hit {
	h := sc.heap[:0]
	for _, ord := range touched {
		cand := scoredDoc{doc: ord, score: scores[ord]}
		if len(h) < k {
			h = append(h, cand)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !ix.worse(base, h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if ix.worse(base, cand, h[0]) {
			continue
		}
		h[0] = cand
		ix.siftDown(base, h, 0)
	}
	out := make([]Hit, len(h))
	// Pop ascending; fill the output back to front for best-first order.
	for i := len(h) - 1; i >= 0; i-- {
		top := h[0]
		out[i] = Hit{ID: ix.ordID(base, top.doc), Score: top.score}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		ix.siftDown(base, h, 0)
	}
	sc.heap = h[:0]
	return out
}

func (ix *Index) siftDown(base *staticSeg, h []scoredDoc, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && ix.worse(base, h[l], h[min]) {
			min = l
		}
		if r < len(h) && ix.worse(base, h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
