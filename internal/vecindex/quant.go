package vecindex

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/embed"
	"repro/internal/seglist"
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
// Rows live in a list of sealed segments and a heap tail. A segment
// (binary.go) is one contiguous row-major code matrix with the norms and
// IDs beside it, immutable, in the container Build made, shared with every
// fork of the index. The segments' rows take the ordinals in list order,
// oldest first; rows added since follow in the tail. Removing a sealed row
// only flips its tombstone, in the index's own bitmap over that segment.
// Seal moves the tail into a new segment and merges segments by the
// policy of seglist.Merge, so the list stays O(log n) long; Freeze folds
// every segment, the tail and the tombstones into one.
//
// Safe for concurrent Add, Remove, Seal, Freeze, Fork and Search.
type SQFlat struct {
	dim int
	mu  sync.RWMutex

	segs    []*part // oldest first
	segRows int     // rows over every segment, removed ones included: the tail's first ordinal
	segLive int

	ids   []string       // tail ordinal -> ID
	byID  map[string]int // ID -> its latest tail ordinal
	codes []int8         // tail rows back to back
	norms []float32      // tail ordinal -> inverse code norm
	dead  []bool         // tail tombstones
	live  int            // live tail rows
}

// part is one sealed segment of an index's list, with the index's own
// tombstones over its rows.
type part struct {
	z *Frozen
	seglist.Part
}

func newPart(z *Frozen) *part { return &part{z: z, Part: seglist.NewPart(z.seg.n)} }

// NewSQFlat returns an empty index of dimension dim.
func NewSQFlat(dim int) *SQFlat {
	if dim <= 0 {
		panic("vecindex: non-positive dimension")
	}
	return &SQFlat{dim: dim, byID: make(map[string]int)}
}

// setSegs installs segs as the segment list and numbers their rows.
func (s *SQFlat) setSegs(segs []*part) {
	s.segs = segs
	s.segRows, s.segLive = seglist.Number(segs)
}

// sealedIDs is a segment's ID column, for seglist.Lookup.
func sealedIDs(p *part) binfmt.FrontCodedCol { return p.z.seg.ids }

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
	if p, _ := seglist.Lookup(s.segs, id, sealedIDs); p != nil {
		return fmt.Errorf("vecindex: duplicate id %q", id)
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
// compacts once tombstones dominate it; a sealed row's tombstone stays
// until a merge or Freeze rewrites its segment.
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
	if p, ord := seglist.Lookup(s.segs, id, sealedIDs); p != nil {
		p.Delete(ord)
		s.segLive--
		return true
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
	return s.segLive + s.live
}

// Residency reports the process-private bytes the index holds — the
// tail's codes and norms, and every segment's whole container (IDs, norms
// and codes) — and the live rows added since the last seal.
func (s *SQFlat) Residency() (bytes int64, tailRows int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes = int64(len(s.codes)) + 4*int64(len(s.norms))
	for _, p := range s.segs {
		bytes += p.z.seg.r.ID().Size
	}
	return bytes, s.live
}

// Segments returns the length of the segment list.
func (s *SQFlat) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// TailBytes estimates the Go heap the tail holds: its codes, norms and
// tombstones, its IDs with their string headers, and a map entry for each.
func (s *SQFlat) TailBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := int64(len(s.codes)) + 5*int64(len(s.norms)) + mapEntryBytes*int64(len(s.byID))
	for _, id := range s.ids {
		n += 16 + int64(len(id))
	}
	return n
}

// mapEntryBytes is about what a map entry of a string key and an int
// costs, its share of empty slots included.
const mapEntryBytes = 40

func viewString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// sqPool pools what a search needs beyond its result: the heap's array
// and the ID column it resolves ties and hits by (and its decode buffers).
var sqPool = sync.Pool{New: func() any { return new(seglist.TopK) }}

// Search returns the top-k rows nearest q, best first, ties broken by
// ascending ID: one pass over each segment's code matrix, then the tail,
// keeping the k best ordinals; IDs are resolved for those k only (and to
// break ties), so a search allocates its result and, for sealed hits,
// their ID strings.
func (s *SQFlat) Search(q embed.Vector, k int) []Hit {
	if k <= 0 || len(q) != s.dim {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.segLive+s.live == 0 {
		return nil
	}
	var invQ float64
	if n := embed.Norm(q); n > 0 {
		invQ = 1 / n
	}
	segs := s.segs
	t := sqPool.Get().(*seglist.TopK)
	t.IDs.Reset(s.segRows, s.ids)
	t.Reset(k, s.segLive+s.live)
	for _, p := range segs {
		t.IDs.Add(p.First, p.z.seg.ids) // before any of its rows can tie
		scan(t, q, invQ, p.First, p.z.seg.codes, p.z.seg.norms, p.Dead)
	}
	scan(t, q, invQ, s.segRows, s.codes, s.norms, s.dead)
	out := t.Hits()
	runtime.KeepAlive(segs) // codes and IDs were read from their mappings
	t.IDs.Reset(0, nil)
	sqPool.Put(t)
	return out
}

// scan offers every live row of one tier, whose ordinals start at base.
func scan(t *seglist.TopK, q []float32, invQ float64, base int, codes []int8, norms []float32, dead []bool) {
	dim := len(q)
	for ord, gone := range dead {
		if !gone {
			score := float64(dotCodes(q, codes[ord*dim:(ord+1)*dim])) * float64(norms[ord]) * invQ
			t.Offer(int32(base+ord), score)
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

// Seal moves the tail into a new segment at the end of the list, then
// merges by seglist.Merge's policy, by rows: a seal costs the tail's rows,
// and a row is copied into a new segment O(log n) times over the index's
// life. Searches score the same before and after (a row's codes and norm
// move verbatim; ties break by ID whichever segment holds a row).
func (s *SQFlat) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
}

func (s *SQFlat) sealLocked() {
	var add []*part
	if s.live > 0 {
		add = append(add, newPart(&Frozen{seg: s.mustMerge(nil, true)}))
	}
	if len(s.ids) > 0 {
		s.resetTail()
	}
	segs, _ := seglist.Merge(s.segs, func(p *part) int { return p.z.seg.n }, func(segs []*part) (*part, error) {
		return newPart(&Frozen{seg: s.mustMerge(segs, false)}), nil
	}, add...)
	s.setSegs(segs)
}

// Freeze folds the index into one segment of its live rows, which it then
// searches under an empty tail, and returns it. Searches score the same
// before and after. An index that is one segment with nothing written or
// removed since returns the segment it has.
func (s *SQFlat) Freeze() *Frozen {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ids) == 0 && len(s.segs) == 1 && s.segLive == s.segRows {
		return s.segs[0].z
	}
	z := &Frozen{seg: s.mustMerge(s.segs, true)}
	s.resetTail()
	s.setSegs([]*part{newPart(z)})
	return z
}

// Fork seals the tail (see Seal) and returns an index over the same
// segments, with a copy of their tombstones and an empty tail: what a
// reader pinned to this point searches. It shares every segment with the
// live index, so it costs a tombstone per sealed row.
func (s *SQFlat) Fork() *SQFlat {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
	f := NewSQFlat(s.dim)
	segs := make([]*part, len(s.segs))
	for i, p := range s.segs {
		segs[i] = &part{z: p.z, Part: p.Clone()}
	}
	f.setSegs(segs)
	return f
}

func (s *SQFlat) resetTail() {
	s.ids, s.codes, s.norms, s.dead, s.live, s.byID = nil, nil, nil, nil, 0, make(map[string]int)
}

// mustMerge is mergeLocked, whose failure is a bug: the segment was built
// here from a consistent index, yet fails the validation every opened one
// passes.
func (s *SQFlat) mustMerge(segs []*part, tail bool) *segment {
	seg, err := s.mergeLocked(segs, tail)
	if err != nil {
		panic(fmt.Sprintf("vecindex: seal: %v", err))
	}
	return seg
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

// mergeLocked builds one segment of the live rows of segs and, with tail,
// of the tail, in ID order. Caller holds the write lock.
func (s *SQFlat) mergeLocked(segs []*part, tail bool) (*segment, error) {
	var order []int // the tail's live rows in ID order
	if tail {
		order = make([]int, 0, s.live)
		for ord, dead := range s.dead {
			if !dead {
				order = append(order, ord)
			}
		}
		slices.SortFunc(order, func(a, b int) int { return strings.Compare(s.ids[a], s.ids[b]) })
	}
	var ids binfmt.FrontCoder
	norms, codes := s.norms, s.codes
	if tail && len(segs) == 0 && s.live == len(s.ids) {
		// The tail alone, every row live: reorder it in place rather than
		// into a second buffer the size of its codes.
		for _, ord := range order {
			ids.Add(s.ids[ord])
		}
		permuteRows(codes, norms, s.dim, order)
	} else {
		n := len(order)
		cols, dead := make([]binfmt.FrontCodedCol, len(segs)), make([][]bool, len(segs))
		for i, p := range segs {
			n += p.Live
			cols[i], dead[i] = p.z.seg.ids, p.Dead
		}
		tailIDs := make([]string, len(order))
		for i, ord := range order {
			tailIDs[i] = s.ids[ord]
		}
		norms, codes = make([]float32, 0, n), make([]int8, 0, n*s.dim)
		binfmt.MergeAscending(cols, dead, tailIDs, func(src, row int, id string) {
			ids.Add(id)
			if src == len(segs) {
				row = order[row]
				norms = append(norms, s.norms[row])
				codes = append(codes, s.codes[row*s.dim:(row+1)*s.dim]...)
				return
			}
			seg := segs[src].z.seg
			norms = append(norms, seg.norms[row])
			codes = append(codes, seg.codes[row*s.dim:(row+1)*s.dim]...)
		})
	}
	bw := binfmt.NewWriter()
	if err := encodeSegment(bw, s.dim, &ids, norms, codes); err != nil {
		return nil, err
	}
	fr, err := bw.Build()
	runtime.KeepAlive(segs) // norms, codes and IDs were copied from their columns until here
	if err != nil {
		return nil, err
	}
	return loadSegment(fr)
}
