package vecindex

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/embed"
)

// DefaultRerank is the candidate multiple used when SQFlat is constructed
// with a non-positive rerank factor: the quantized scan keeps
// DefaultRerank×k candidates for exact re-ranking.
const DefaultRerank = 4

// SQFlat is an exact-layout flat index scanned through int8 scalar
// quantization: every vector is encoded as dim int8 codes against a
// shared per-index [lo, hi] range, the scan ranks all vectors by a
// quantized score whose inner loop is an allocation-free int32
// multiply-accumulate over the code bytes (16x smaller than the float32
// vectors it stands in for, so the scan is memory-bandwidth-cheap), and
// the top rerank×k survivors are re-scored exactly against the retained
// full-precision vectors. With a sufficient rerank multiple the final
// top-k matches Flat almost always (see the recall ablation in
// internal/experiments).
//
// Scoring identity: with Δ = (hi-lo)/255 and m = lo + 128Δ, a code c
// reconstructs as m + cΔ, so for raw code sums sa, sb and the code dot
// product cab the reconstructed inner product is
//
//	d·m² + mΔ·(sa+sb) + Δ²·cab
//
// which needs only the stored per-vector code sums — the hot loop touches
// nothing but int8 codes. L2 uses code square-sums the same way.
type SQFlat struct {
	metric Metric
	dim    int
	rerank int
	store

	// ranged reports whether lo/hi hold a real range yet (false until the
	// first vector arrives).
	ranged bool
	lo, hi float32
	codes  []int8    // ordinal-parallel, len(ids)*dim, incl. tombstones
	sums   []int32   // per-vector raw code sum
	sqsums []int32   // per-vector raw code square sum
	norms  []float32 // per-vector full-precision Euclidean norm
	// viewed is set while the four columns may still be the views of
	// store.pin the index was opened with; an Add reallocates all of them.
	viewed bool

	// requants counts whole-index requantizations (range extensions).
	requants int
}

// NewSQFlat returns an empty int8 scalar-quantized flat index of
// dimension dim keeping rerank×k candidates for exact re-ranking
// (DefaultRerank when rerank <= 0).
func NewSQFlat(dim int, metric Metric, rerank int) *SQFlat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	if rerank <= 0 {
		rerank = DefaultRerank
	}
	return &SQFlat{metric: metric, dim: dim, rerank: rerank, store: newStore()}
}

// quantScale returns Δ for the current range; a degenerate range (all
// components equal) quantizes everything to code -128 with Δ=0, which the
// scoring identity handles (every approximate score collapses to d·lo²,
// leaving ranking to the exact re-rank).
func (s *SQFlat) quantScale() float32 {
	return (s.hi - s.lo) / 255
}

// quantizeInto appends v's codes to dst using the current range and
// returns the new slice plus the raw code sum and square sum.
func (s *SQFlat) quantizeInto(dst []int8, v embed.Vector) ([]int8, int32, int32) {
	delta := s.quantScale()
	var inv float32
	if delta > 0 {
		inv = 1 / delta
	}
	var sum, sq int32
	for _, x := range v {
		c := int32(-128)
		if delta > 0 {
			q := int32(math.Round(float64((x - s.lo) * inv)))
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			c = q - 128
		}
		dst = append(dst, int8(c))
		sum += c
		sq += c * c
	}
	return dst, sum, sq
}

// requantizeLocked rebuilds every code against the current range into
// fresh slices (never in place: frozen captures and loaded snapshot views
// may alias the old ones).
func (s *SQFlat) requantizeLocked() {
	codes := make([]int8, 0, len(s.vecs)*s.dim)
	sums := make([]int32, len(s.vecs))
	sqsums := make([]int32, len(s.vecs))
	for i, v := range s.vecs {
		codes, sums[i], sqsums[i] = s.quantizeInto(codes, v)
	}
	s.codes, s.sums, s.sqsums = codes, sums, sqsums
	s.requants++
}

// Add indexes v under id. The vector is copied and quantized; when v
// falls outside the index's quantization range the range is extended and
// every stored code is rebuilt (rare once the range has seen
// representative data — embeddings here are unit-norm, so component
// magnitudes are bounded). Duplicate live IDs and dimension mismatches
// are errors; a removed id may be added again.
func (s *SQFlat) Add(id string, v embed.Vector) error {
	if len(v) != s.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), s.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.addLocked(id, v)
	if err != nil {
		return err
	}
	s.viewed = false
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	s.norms = append(s.norms, float32(embed.Norm(v)))
	if !s.ranged || lo < s.lo || hi > s.hi {
		if !s.ranged {
			s.lo, s.hi, s.ranged = lo, hi, true
		} else {
			if lo < s.lo {
				s.lo = lo
			}
			if hi > s.hi {
				s.hi = hi
			}
		}
		s.requantizeLocked()
		return nil
	}
	var sum, sq int32
	s.codes, sum, sq = s.quantizeInto(s.codes, v)
	s.sums = append(s.sums, sum)
	s.sqsums = append(s.sqsums, sq)
	return nil
}

// Remove tombstones id's vector, compacting the index (and its code
// columns) once tombstones dominate. Removing an unknown or
// already-removed id is a no-op returning false.
func (s *SQFlat) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed, compactDue := s.removeLocked(id)
	if compactDue {
		remap := s.compactLocked()
		codes := make([]int8, 0, s.live*s.dim)
		sums := make([]int32, 0, s.live)
		sqsums := make([]int32, 0, s.live)
		norms := make([]float32, 0, s.live)
		for old, no := range remap {
			if no < 0 {
				continue
			}
			codes = append(codes, s.codes[old*s.dim:(old+1)*s.dim]...)
			sums = append(sums, s.sums[old])
			sqsums = append(sqsums, s.sqsums[old])
			norms = append(norms, s.norms[old])
		}
		s.codes, s.sums, s.sqsums, s.norms = codes, sums, sqsums, norms
	}
	return removed
}

// Adopt is store.Adopt; code columns still viewing the container the index
// was opened from, which the rows leave here, move to the heap.
func (s *SQFlat) Adopt(z Frozen, path string) error {
	return s.adopt(z, path, func() {
		if s.viewed {
			s.codes, s.sums, s.sqsums, s.norms = slices.Clone(s.codes), slices.Clone(s.sums), slices.Clone(s.sqsums), slices.Clone(s.norms)
			s.viewed = false
		}
	})
}

// Len returns the number of live indexed vectors.
func (s *SQFlat) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// SetRerank overrides the candidate multiple (<= 0 resets to
// DefaultRerank). A runtime accuracy/speed knob: snapshots store the
// multiple they were built with, and loaders apply the operator's current
// setting on top.
func (s *SQFlat) SetRerank(rerank int) {
	if rerank <= 0 {
		rerank = DefaultRerank
	}
	s.mu.Lock()
	s.rerank = rerank
	s.mu.Unlock()
}

// Requants returns how many whole-index requantizations range extensions
// have forced (an observability hook for tuning).
func (s *SQFlat) Requants() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.requants
}

// sqScratch pools the per-query buffers: the quantized query and the
// candidate heap.
type sqScratch struct {
	qcodes []int8
	cands  []scoredOrd
}

type scoredOrd struct {
	ord   int32
	score float64
}

var sqPool = sync.Pool{New: func() any { return new(sqScratch) }}

// Search implements Searcher: an approximate scan over the int8 codes
// keeps the best rerank×k candidates, which are then re-scored exactly
// against the full-precision vectors.
func (s *SQFlat) Search(q embed.Vector, k int) []Hit {
	if k <= 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.live == 0 || len(q) != s.dim {
		return nil
	}
	kp := k * s.rerank
	if kp < k {
		kp = k
	}

	sc := sqPool.Get().(*sqScratch)
	var qsum, qsq int32
	sc.qcodes, qsum, qsq = s.quantizeInto(sc.qcodes[:0], q)
	qnorm := embed.Norm(q)

	delta := float64(s.quantScale())
	m := float64(s.lo) + 128*delta
	d := float64(s.dim)
	base := d * m * m

	// Approximate pass: bounded min-heap of the kp best quantized scores,
	// ties broken by ascending ordinal for determinism.
	h := sc.cands[:0]
	worse := func(a, b scoredOrd) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.ord > b.ord
	}
	var siftDown func(h []scoredOrd, i int)
	siftDown = func(h []scoredOrd, i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && worse(h[l], h[min]) {
				min = l
			}
			if r < len(h) && worse(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for ord := range s.vecs {
		if s.deleted[ord] {
			continue
		}
		cab := dotCodes(sc.qcodes, s.codes[ord*s.dim:(ord+1)*s.dim])
		var approx float64
		switch s.metric {
		case L2:
			// Reconstructed squared distance: Δ²·(Σqa² - 2Σqaqb + Σqb²).
			approx = -delta * delta * float64(qsq-2*cab+s.sqsums[ord])
		default:
			dot := base + m*delta*float64(qsum+s.sums[ord]) + delta*delta*float64(cab)
			if s.metric == Cosine {
				denom := qnorm * float64(s.norms[ord])
				if denom == 0 {
					dot = 0
				} else {
					dot /= denom
				}
			}
			approx = dot
		}
		cand := scoredOrd{ord: int32(ord), score: approx}
		if len(h) < kp {
			h = append(h, cand)
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if worse(cand, h[0]) {
			continue
		}
		h[0] = cand
		siftDown(h, 0)
	}

	// Exact re-rank of the survivors.
	out := newTopK(k)
	for _, c := range h {
		out.offer(s.ids[c.ord], score(s.metric, q, s.vecs[c.ord]))
	}
	sc.cands = h[:0]
	sqPool.Put(sc)
	return out.results()
}

// dotCodes is the quantized hot loop: an int32 multiply-accumulate over
// two code rows, 4-wide unrolled with the bounds check hoisted. It
// allocates nothing.
func dotCodes(a, b []int8) int32 {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += int32(aa[0]) * int32(bb[0])
		s1 += int32(aa[1]) * int32(bb[1])
		s2 += int32(aa[2]) * int32(bb[2])
		s3 += int32(aa[3]) * int32(bb[3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// sqSnapshot is the serialized form of an SQFlat index.
type sqSnapshot struct {
	Metric int
	Dim    int
	Lo, Hi float32
	Rerank int
	rows
	Codes  []int8
	Sums   []int32
	SqSums []int32
	Norms  []float32
}

// Freeze captures the index's live vectors and quantization state.
// Tombstone-free captures share the live slices (requantization replaces
// the code columns wholesale rather than mutating them, so shared views
// stay consistent); captures with tombstones compact into fresh slices.
func (s *SQFlat) Freeze() Frozen {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := sqSnapshot{
		Metric: int(s.metric), Dim: s.dim, Lo: s.lo, Hi: s.hi, Rerank: s.rerank,
	}
	if s.live == len(s.ids) {
		snap.IDs = s.ids[:len(s.ids):len(s.ids)]
		snap.Codes = s.codes[:len(s.codes):len(s.codes)]
		snap.Sums = s.sums[:len(s.sums):len(s.sums)]
		snap.SqSums = s.sqsums[:len(s.sqsums):len(s.sqsums)]
		snap.Norms = s.norms[:len(s.norms):len(s.norms)]
		snap.Vecs = append([]embed.Vector(nil), s.vecs...)
		return s.capture(&snap)
	}
	snap.IDs = make([]string, 0, s.live)
	snap.Vecs = make([]embed.Vector, 0, s.live)
	snap.Codes = make([]int8, 0, s.live*s.dim)
	snap.Sums = make([]int32, 0, s.live)
	snap.SqSums = make([]int32, 0, s.live)
	snap.Norms = make([]float32, 0, s.live)
	for ord, v := range s.vecs {
		if s.deleted[ord] {
			continue
		}
		snap.IDs = append(snap.IDs, s.ids[ord])
		snap.Vecs = append(snap.Vecs, v)
		snap.Codes = append(snap.Codes, s.codes[ord*s.dim:(ord+1)*s.dim]...)
		snap.Sums = append(snap.Sums, s.sums[ord])
		snap.SqSums = append(snap.SqSums, s.sqsums[ord])
		snap.Norms = append(snap.Norms, s.norms[ord])
	}
	return s.capture(&snap)
}
