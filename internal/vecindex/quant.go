package vecindex

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
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
// requantize to — so an index that was sealed, or derived at open from
// what its rows were embedded from, answers bit for bit as one whose rows
// were all added.
//
// Rows live in two tiers. The base is a sealed segment (binary.go): one
// contiguous row-major code matrix with the norms and IDs beside it,
// immutable, in the container Build made, shared with every capture of
// it. Its ordinals are [0, n); rows added since follow at n in the heap
// tail. Removing a base row only flips its tombstone. Freeze folds base,
// tail and tombstones into the next base.
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
	return s.base.seg
}

// Quantize writes v's codes into dst (len(v) long) and returns the inverse
// norm of the codes, 0 for a zero or infinite vector (a NaN component codes
// as 0): a row as SQFlat stores it. Branch-free per component: it runs
// once for every row ingested.
func Quantize(dst []int8, v embed.Vector) float32 {
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
	codes := make([]int8, len(v))
	return s.AddCodes(id, codes, Quantize(codes, v))
}

// AddCodes indexes a row Quantize already coded under id: its codes and
// the inverse norm Quantize returned, stored as they are.
func (s *SQFlat) AddCodes(id string, codes []int8, norm float32) error {
	if len(codes) != s.dim {
		return fmt.Errorf("vecindex: vector dim %d != index dim %d", len(codes), s.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ord, ok := s.byID[id]; ok && !s.dead[ord] {
		return fmt.Errorf("vecindex: duplicate id %q", id)
	}
	if seg := s.segment(); seg != nil {
		if ord := seg.ids.Find(id); ord >= 0 && !s.baseDead[ord] {
			return fmt.Errorf("vecindex: duplicate id %q", id)
		}
	}
	s.codes = append(s.codes, codes...)
	s.norms = append(s.norms, norm)
	s.byID[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.dead = append(s.dead, false)
	s.live++
	return nil
}

// compactThreshold is the minimum tombstone count before the tail compacts
// itself. Removal compacts once tombstones both exceed this floor and
// outnumber live rows, so sustained churn (e.g. entity re-indexing under
// live KG ingestion) keeps memory and scan cost within 2× of the live set
// at amortized O(1) per removal.
const compactThreshold = 64

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
		if ord := seg.ids.Find(id); ord >= 0 && !s.baseDead[ord] {
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

// Residency reports the process-private bytes the index holds — the
// tail's codes and norms, and the base segment's whole container (IDs,
// norms and codes) — and the live rows added since the last seal.
func (s *SQFlat) Residency() (bytes int64, tailRows int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes = int64(len(s.codes)) + 4*int64(len(s.norms))
	if seg := s.segment(); seg != nil {
		bytes += seg.r.ID().Size
	}
	return bytes, s.live
}

// rowIDs resolves the ordinals of one search: below base a row of the
// segment the search loaded, from base on the tail. buf holds a base ID
// decoded for a tie with a tail row or for a hit.
type rowIDs struct {
	seg  *segment
	base int32
	tail []string
	buf  []byte
}

// cmp compares two rows' IDs. Base ordinals follow their IDs, so two base
// rows compare as ordinals; a base ID is decoded only against a tail one.
func (v *rowIDs) cmp(a, b int32) int {
	switch {
	case a < v.base && b < v.base:
		return cmp.Compare(a, b)
	case a >= v.base && b >= v.base:
		return strings.Compare(v.tail[a-v.base], v.tail[b-v.base])
	case a < v.base:
		v.buf = v.seg.ids.AppendAt(v.buf[:0], int(a))
		return strings.Compare(viewString(v.buf), v.tail[b-v.base])
	default:
		v.buf = v.seg.ids.AppendAt(v.buf[:0], int(b))
		return strings.Compare(v.tail[a-v.base], viewString(v.buf))
	}
}

func (v *rowIDs) id(ord int32) string {
	if ord < v.base {
		v.buf = v.seg.ids.AppendAt(v.buf[:0], int(ord))
		return string(v.buf)
	}
	return v.tail[ord-v.base]
}

func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// sqScratch pools what a search needs beyond its result: the ID resolver
// the heap holds by pointer (and its decode buffer), and the heap's array.
type sqScratch struct {
	ids rowIDs
	h   []scored
}

var sqPool = sync.Pool{New: func() any { return new(sqScratch) }}

// Search returns the top-k rows nearest q, best first, ties broken by
// ascending ID: one pass over the code matrix, then the tail, keeping the
// k best ordinals; IDs are resolved for those k only (and to break ties),
// so a search allocates its result and, for hits in a sealed base, their
// ID strings.
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
	sc.ids = rowIDs{seg: seg, base: int32(len(s.baseDead)), tail: s.ids, buf: sc.ids.buf}
	t := topK{k: k, ids: &sc.ids, h: sc.h[:0]}
	if seg != nil {
		t.scan(q, invQ, 0, seg.codes, seg.norms, s.baseDead)
	}
	t.scan(q, invQ, len(s.baseDead), s.codes, s.norms, s.dead)
	out := t.results()
	runtime.KeepAlive(seg) // codes and IDs were read from its mapping
	sc.ids, sc.h = rowIDs{buf: sc.ids.buf[:0]}, t.h[:0]
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
// verbatim; ties break by ID whichever tier holds a row). An index with
// nothing written since its last seal returns the segment it has.
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
	s.setBase(&Frozen{seg: next})
	return s.base
}

// setBase installs z as the base tier with no tombstones.
func (s *SQFlat) setBase(z *Frozen) {
	n := z.seg.n
	s.base, s.baseDead, s.baseLive = z, make([]bool, n), n
}

// Derive returns an index whose base is a segment of rows computed in
// place: one per ID of ids, in the column's (ascending) order, row i being
// what fill(i, row) writes into a zeroed vector of dim components,
// quantized as Add quantizes a vector. The rows never sit on the heap
// whole, only their codes until the container is built.
func Derive(dim int, ids binfmt.FrontCodedCol, fill func(i int, row embed.Vector)) (*SQFlat, error) {
	n := ids.Len()
	codes, norms := make([]int8, n*dim), make([]float32, n)
	row := make(embed.Vector, dim)
	for i := range norms {
		clear(row)
		fill(i, row)
		norms[i] = Quantize(codes[i*dim:(i+1)*dim], row)
	}
	var col binfmt.FrontCoder
	for _, id := range ids.All() {
		col.Add(viewString(id))
	}
	bw := binfmt.NewWriter()
	if err := encodeSegment(bw, dim, &col, norms, codes); err != nil {
		return nil, err
	}
	fr, err := bw.Build()
	if err != nil {
		return nil, fmt.Errorf("vecindex: derive: %w", err)
	}
	seg, err := loadSegment(fr)
	if err != nil {
		return nil, err
	}
	return (&Frozen{seg: seg}).Thaw(), nil
}

// permuteRows reorders rows of dim codes and their norms in place so that
// row i becomes the row at order[i], following each cycle of the
// permutation once; order is overwritten.
func permuteRows(codes []int8, norms []float32, dim int, order []int) {
	row := func(i int) []int8 { return codes[i*dim : (i+1)*dim] }
	first := make([]int8, dim)
	for i := range order {
		if order[i] < 0 || order[i] == i {
			continue
		}
		copy(first, row(i))
		firstNorm := norms[i]
		for j := i; ; {
			k := order[j]
			order[j] = -1
			if k == i {
				copy(row(j), first)
				norms[j] = firstNorm
				break
			}
			copy(row(j), row(k))
			norms[j] = norms[k]
			j = k
		}
	}
}

// sealLocked builds the compacted segment: the live base rows, in ID order
// already, merged with the live tail rows sorted by ID. Caller holds the
// write lock.
func (s *SQFlat) sealLocked(base *segment) (*segment, error) {
	tail := make([]int, 0, s.live)
	for ord, dead := range s.dead {
		if !dead {
			tail = append(tail, ord)
		}
	}
	slices.SortFunc(tail, func(a, b int) int { return strings.Compare(s.ids[a], s.ids[b]) })

	var ids binfmt.FrontCoder
	norms, codes := s.norms, s.codes
	if base == nil && s.live == len(s.ids) {
		// The tail alone, every row live (the first seal): reorder it in
		// place rather than into a second buffer the size of its codes.
		for _, ord := range tail {
			ids.Add(s.ids[ord])
		}
		permuteRows(codes, norms, s.dim, tail)
	} else {
		n := s.baseLive + s.live
		norms, codes = make([]float32, 0, n), make([]int8, 0, n*s.dim)
		takeTail := func(ord int) {
			ids.Add(s.ids[ord])
			norms = append(norms, s.norms[ord])
			codes = append(codes, s.codes[ord*s.dim:(ord+1)*s.dim]...)
		}
		j := 0
		if base != nil {
			for ord, id := range base.ids.All() {
				for ; j < len(tail) && s.ids[tail[j]] < viewString(id); j++ {
					takeTail(tail[j])
				}
				if !s.baseDead[ord] {
					ids.Add(viewString(id))
					norms = append(norms, base.norms[ord])
					codes = append(codes, base.codes[ord*s.dim:(ord+1)*s.dim]...)
				}
			}
		}
		for ; j < len(tail); j++ {
			takeTail(tail[j])
		}
	}
	bw := binfmt.NewWriter()
	if err := encodeSegment(bw, s.dim, &ids, norms, codes); err != nil {
		return nil, err
	}
	fr, err := bw.Build()
	runtime.KeepAlive(base) // norms and codes were copied from its columns until here
	if err != nil {
		return nil, err
	}
	return loadSegment(fr)
}
