package vecindex

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// SQFlat is an exhaustive cosine index over int8 rows. A row is dim codes
// against its own symmetric scale (max|x|/127) and one float32, the
// inverse Euclidean norm of the codes: the scale cancels out of a cosine,
// so a row scores as rownorm · Σ q[i]·code[i] / ‖q‖ in one pass, against
// the float32 query as given. The codes are the only thing ever scored —
// there is no float copy to re-rank against and no index-wide range to
// requantize to — so an index that was sealed, saved, adopted or reopened
// answers bit for bit as one that never left the heap.
//
// Rows live in two tiers. The base is a sealed segment (binary.go): one
// contiguous row-major code matrix with the norms and IDs beside it,
// immutable, in the heap buffer Freeze built it in until a file holds it
// and in that file's mapping afterwards, behind an atomic pointer shared
// with every capture of it. Its ordinals are [0, n); rows added since
// follow at n in the heap tail. Removing a base row only flips its
// tombstone. Freeze folds base, tail and tombstones into the next base.
//
// Safe for concurrent Add, Remove, Freeze and Search.
type SQFlat struct {
	dim int
	mu  sync.RWMutex

	base     *Frozen // shared with every capture Freeze handed out; nil until the first
	baseDead []bool  // tombstones over base ordinals
	baseLive int

	ids   []string       // tail ordinal -> ID
	byID  map[string]int // ID -> its latest tail ordinal
	codes []int8         // tail rows back to back
	norms []float32      // tail ordinal -> inverse code norm
	dead  []bool         // tail tombstones
	live  int            // live tail rows
}

// NewSQFlat returns an empty index of dimension dim.
func NewSQFlat(dim int) *SQFlat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	return &SQFlat{dim: dim, byID: make(map[string]int)}
}

// segment returns the base tier's current column views, nil without one.
func (s *SQFlat) segment() *segment {
	if s.base == nil {
		return nil
	}
	return s.base.seg.Load()
}

// quantize writes v's codes into dst (len(v) long) and returns the inverse
// norm of the codes, 0 for a zero or infinite vector (a NaN component codes
// as 0). Branch-free per component: it runs once for every row ingested.
func quantize(dst []int8, v embed.Vector) float32 {
	var maxAbs float32
	for _, x := range v {
		if a := math.Float32frombits(math.Float32bits(x) &^ (1 << 31)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || maxAbs > math.MaxFloat32 {
		clear(dst)
		return 0
	}
	// Adding and subtracting 1.5·2²³ leaves the nearest integer (ties to
	// even): float32 has no fraction bits left at that magnitude. |x·inv|
	// is at most 127 before rounding, so the code fits without clamping.
	const roundMagic = 3 << 22
	inv := 127 / maxAbs
	var sq int32
	for i, x := range v {
		c := int32((x*inv + roundMagic) - roundMagic)
		dst[i] = int8(c)
		sq += c * c
	}
	return float32(1 / math.Sqrt(float64(sq)))
}

// Add quantizes v and indexes it under id. Duplicate live IDs and dimension
// mismatches are errors; a removed id may be added again.
func (s *SQFlat) Add(id string, v embed.Vector) error {
	if len(v) != s.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(v), s.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ord, ok := s.byID[id]; ok && !s.dead[ord] {
		return fmt.Errorf("vecindex: duplicate id %q", id)
	}
	if seg := s.segment(); seg != nil {
		if ord := seg.find(id); ord >= 0 && !s.baseDead[ord] {
			return fmt.Errorf("vecindex: duplicate id %q", id)
		}
	}
	off := len(s.codes)
	s.codes = slices.Grow(s.codes, s.dim)[:off+s.dim]
	s.norms = append(s.norms, quantize(s.codes[off:], v))
	s.byID[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.dead = append(s.dead, false)
	s.live++
	return nil
}

// Remove tombstones id's row, reporting whether it was live. The tail
// compacts once tombstones dominate it; base tombstones wait for the next
// Freeze.
func (s *SQFlat) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ord, ok := s.byID[id]; ok && !s.dead[ord] {
		s.dead[ord] = true
		s.live--
		if gone := len(s.ids) - s.live; gone > s.live && gone >= compactThreshold {
			s.compactTailLocked()
		}
		return true
	}
	if seg := s.segment(); seg != nil {
		if ord := seg.find(id); ord >= 0 && !s.baseDead[ord] {
			s.baseDead[ord] = true
			s.baseLive--
			return true
		}
	}
	return false
}

// compactTailLocked rebuilds the tail without its tombstones.
func (s *SQFlat) compactTailLocked() {
	ids := make([]string, 0, s.live)
	codes := make([]int8, 0, s.live*s.dim)
	norms := make([]float32, 0, s.live)
	byID := make(map[string]int, s.live)
	for ord, id := range s.ids {
		if s.dead[ord] {
			continue
		}
		byID[id] = len(ids)
		ids = append(ids, id)
		codes = append(codes, s.codes[ord*s.dim:(ord+1)*s.dim]...)
		norms = append(norms, s.norms[ord])
	}
	s.ids, s.codes, s.norms, s.byID, s.dead = ids, codes, norms, byID, make([]bool, len(ids))
}

// Len returns the number of live rows.
func (s *SQFlat) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseLive + s.live
}

// Residency reports the code and norm bytes the index holds, by where
// they sit — the tail and a base no file backs yet on the heap, an adopted
// or opened base in its mapping — and the live rows added since the last
// seal.
func (s *SQFlat) Residency() (heap, mapped int64, heapRows int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	heap = int64(len(s.codes)) + 4*int64(len(s.norms))
	if seg := s.segment(); seg != nil {
		if n := int64(len(seg.codes)) + 4*int64(len(seg.norms)); seg.r.Mapped() {
			mapped = n
		} else {
			heap += n
		}
	}
	return heap, mapped, s.live
}

// rowIDs resolves the ordinals of one search: below base a row of the
// segment the search loaded, from base on the tail.
type rowIDs struct {
	seg  *segment
	base int
	tail []string
}

func (v *rowIDs) idView(ord int32) string {
	if int(ord) < v.base {
		return viewString(v.seg.ids.Bytes(int(ord)))
	}
	return v.tail[int(ord)-v.base]
}

func (v *rowIDs) id(ord int32) string {
	if int(ord) < v.base {
		return v.seg.ids.At(int(ord))
	}
	return v.tail[int(ord)-v.base]
}

func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// sqScratch pools what a search needs beyond its result: the ID resolver
// the heap holds by pointer, and the heap's array.
type sqScratch struct {
	ids rowIDs
	h   []scored
}

var sqPool = sync.Pool{New: func() any { return new(sqScratch) }}

// Search implements Searcher: one pass over the code matrix, then the
// tail, keeping the k best ordinals; IDs are resolved for those k only
// (and to break ties), so a search allocates its result and, for hits in
// a sealed base, their ID strings.
func (s *SQFlat) Search(q embed.Vector, k int) []Hit {
	if k <= 0 || len(q) != s.dim {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.baseLive+s.live == 0 {
		return nil
	}
	var invQ float64
	if n := embed.Norm(q); n > 0 {
		invQ = 1 / n
	}
	seg := s.segment()
	sc := sqPool.Get().(*sqScratch)
	sc.ids = rowIDs{seg: seg, base: len(s.baseDead), tail: s.ids}
	t := topK{k: k, ids: &sc.ids, h: sc.h[:0]}
	if seg != nil {
		t.scan(q, invQ, 0, seg.codes, seg.norms, s.baseDead)
	}
	t.scan(q, invQ, len(s.baseDead), s.codes, s.norms, s.dead)
	out := t.results()
	runtime.KeepAlive(seg) // codes and ID views were of its mapping
	sc.ids, sc.h = rowIDs{}, t.h[:0]
	sqPool.Put(sc)
	return out
}

// scan offers every live row of one tier, whose ordinals start at base.
func (t *topK) scan(q []float32, invQ float64, base int, codes []int8, norms []float32, dead []bool) {
	dim := len(q)
	for ord, gone := range dead {
		if !gone {
			score := float64(dotCodes(q, codes[ord*dim:(ord+1)*dim])) * float64(norms[ord]) * invQ
			t.offer(int32(base+ord), score)
		}
	}
}

// codeValue[uint8(c)] is float32(c): a load from a 1 KB table the scan
// keeps in cache costs half what the int-to-float conversion does.
var codeValue = func() (t [256]float32) {
	for i := range t {
		t[i] = float32(int8(i))
	}
	return t
}()

// dotCodes is the scan's hot loop: a float32 multiply-accumulate of the
// query against one code row, 4-wide unrolled over independent
// accumulators with the bounds check hoisted. It allocates nothing.
func dotCodes(q []float32, c []int8) float32 {
	c = c[:len(q)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(q); i += 4 {
		qq, cc := q[i:i+4:i+4], c[i:i+4:i+4]
		s0 += qq[0] * codeValue[uint8(cc[0])]
		s1 += qq[1] * codeValue[uint8(cc[1])]
		s2 += qq[2] * codeValue[uint8(cc[2])]
		s3 += qq[3] * codeValue[uint8(cc[3])]
	}
	for ; i < len(q); i++ {
		s0 += q[i] * codeValue[uint8(c[i])]
	}
	return (s0 + s1) + (s2 + s3)
}

// Freeze seals the index: live base and tail rows are compacted into a new
// segment, which becomes the base under an empty tail and is returned.
// Searches score the same before and after (a row's codes and norm move
// verbatim; ties break by ID, not ordinal). An index with nothing written
// since its last seal returns the segment it has.
func (s *SQFlat) Freeze() *Frozen {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := s.segment()
	if seg != nil && len(s.ids) == 0 && s.baseLive == seg.n {
		return s.base
	}
	next, err := s.sealLocked(seg)
	if err != nil {
		// Built here from a consistent index, yet failing the validation
		// every opened snapshot passes: a bug.
		panic(fmt.Sprintf("vecindex: seal: %v", err))
	}
	s.ids, s.codes, s.norms, s.dead, s.live, s.byID = nil, nil, nil, nil, 0, make(map[string]int)
	s.setBase(newFrozen(next))
	return s.base
}

// setBase installs z as the base tier with no tombstones.
func (s *SQFlat) setBase(z *Frozen) {
	n := z.seg.Load().n
	s.base, s.baseDead, s.baseLive = z, make([]bool, n), n
}

// sealLocked builds the compacted segment: live base rows in ordinal
// order, then live tail rows. Caller holds the write lock.
func (s *SQFlat) sealLocked(base *segment) (*segment, error) {
	ids, norms, codes := s.ids, s.norms, s.codes
	if s.baseLive > 0 || s.live < len(s.ids) { // else nothing to compact: the tail as it stands
		n := s.baseLive + s.live
		ids = make([]string, 0, n)
		norms = make([]float32, 0, n)
		codes = make([]int8, 0, n*s.dim)
		for ord, dead := range s.baseDead {
			if !dead {
				ids = append(ids, viewString(base.ids.Bytes(ord)))
				norms = append(norms, base.norms[ord])
				codes = append(codes, base.codes[ord*s.dim:(ord+1)*s.dim]...)
			}
		}
		for ord, dead := range s.dead {
			if !dead {
				ids = append(ids, s.ids[ord])
				norms = append(norms, s.norms[ord])
				codes = append(codes, s.codes[ord*s.dim:(ord+1)*s.dim]...)
			}
		}
	}
	bw := binfmt.NewWriter()
	if err := encodeSegment(bw, s.dim, ids, norms, codes); err != nil {
		return nil, err
	}
	fr, err := bw.Build()
	runtime.KeepAlive(base) // ids viewed its column until here
	if err != nil {
		return nil, err
	}
	return loadSegment(fr)
}
