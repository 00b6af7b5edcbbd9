package invindex

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/seglist"
)

// Hit is one search result; its Score is the BM25 score.
type Hit = seglist.Hit

// Search returns the top-k documents for query by BM25 score, ties broken by
// ascending ID for determinism. k <= 0 returns nil. The query is analyzed
// through the index's dictionary, which it leaves as it was.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchTerms(ix.dict.AppendTerms(nil, query), k)
}

// searchScratch holds every buffer SearchTerms needs, pooled so the steady
// path performs no per-query allocations: query terms and weights, each
// segment's decoded pairs of one term, a dense per-ordinal score
// accumulator reset via the touched list, and the top-k heap over the
// index's ID column. scores entries are zero except between scoring and
// reset. segs are the column views the search loaded, one per segment,
// set for the search only.
type searchScratch struct {
	terms   []string
	qw      []float64
	runs    [][]int32
	scores  []float64
	touched []int32
	top     seglist.TopK
	segs    []*staticSeg
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

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
	sc.top.IDs.Reset(ix.segDocs, ix.ids)
	for _, p := range ix.segs {
		seg := p.z.cols.Load()
		sc.segs = append(sc.segs, seg)
		sc.top.IDs.Add(p.First, seg.ids)
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
				dead := ix.segs[i].Dead
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
			p, first := ix.segs[i], int32(ix.segs[i].First)
			switch l := sc.segs[i].lengths; {
			case l.U8 != nil:
				touched = scoreRun(scores, touched, run, p.Dead, l.U8, first, qw, idf, ix.k1, ix.b, avgdl)
			case l.U16 != nil:
				touched = scoreRun(scores, touched, run, p.Dead, l.U16, first, qw, idf, ix.k1, ix.b, avgdl)
			default:
				touched = scoreRun(scores, touched, run, p.Dead, l.U32, first, qw, idf, ix.k1, ix.b, avgdl)
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
		sc.top.Reset(k, len(touched))
		for _, ord := range touched {
			sc.top.Offer(ord, scores[ord])
		}
		out = sc.top.Hits()
	}
	runtime.KeepAlive(sc.segs) // IDs were decoded from their mappings

	// Reset the accumulator via the touched list and recycle the scratch.
	for _, ord := range touched {
		scores[ord] = 0
	}
	sc.touched = touched[:0]
	sc.top.IDs.Reset(0, nil)
	clear(sc.segs)
	sc.segs = sc.segs[:0]
	scratchPool.Put(sc)
	return out
}

// scoreRun adds the BM25 contributions of one segment's decoded run to
// scores, skipping tombstoned documents, and appends each document it
// touches first to touched: document doc is ordinal first+doc, of length
// lengths[doc]. It is generic over the width the segment stores lengths
// at, so the loop reads them without a branch.
func scoreRun[L uint8 | uint16 | uint32](scores []float64, touched, run []int32, dead []bool, lengths []L, first int32, qw, idf, k1, b, avgdl float64) []int32 {
	for j := 0; j < len(run); j += 2 {
		doc := run[j]
		if dead[doc] {
			continue
		}
		ord := first + doc
		tf := float64(run[j+1])
		dl := float64(lengths[doc])
		norm := tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avgdl))
		if scores[ord] == 0 {
			touched = append(touched, ord)
		}
		scores[ord] += qw * idf * norm
	}
	return touched
}
