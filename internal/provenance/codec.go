package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/binfmt"
)

// Record wire format inside a segment (all integers uvarint unless noted;
// "dict" is an ID in the store-wide dictionary; a list count is len+1, with
// 0 standing for a nil slice so nil and empty survive the round trip):
//
//	object_id   len, bytes
//	query       len, bytes
//	final       dict
//	resolution  dict
//	reranked    count, then runs: first rank (zigzag), run length >= 1,
//	              then per entry: dict<<1|f32, score
//	decisions   count, then for a list that is not nil the explanations'
//	              total length, then per decision: dict<<1|f32, trust,
//	              source dict, verifier dict, verdict dict, explanation
//	hits        count, then runs until count hits are covered:
//	              index dict, first rank (zigzag), run length >= 1,
//	              then per hit: dict, score delta
//	combined    0 for nil, 1 for Combine(hits), n+2 for a list of n,
//	              then per entry: dict
//
// The outcome (verdict, rerank order, decisions) comes first, so a read of
// it stops before the hits, which hold most of a record's bytes. A run is
// a stretch whose ranks count up by one (and, for hits, whose index family
// is the same), so the ranks the pipeline produces cost three bytes per
// index list while any other rank sequence still round-trips.
//
// A score is its float32 bits (4 bytes LE) when f32 is set — chosen only
// when widening them reproduces the float64 bit for bit — and its float64
// bits (8 bytes LE) otherwise. A hit's score is coded against the hit
// before it in its run: the first of a run is its float64 bits (8 bytes
// LE), a later one the zigzag varint of (previous bits − bits), integer
// arithmetic mod 2^64 and so lossless for every value. An index lists its
// hits best first, so the bits fall slowly: over claims, a delta averages
// about 4 bytes between BM25 scores and 7 between vector scores.
//
// The fused list is nearly always the reciprocal-rank fusion of the hits,
// which the decoder recomputes from them; any other list is written out.
//
// An explanation is its length, then tokens until that many bytes are
// produced: t even is a literal of t>>1 >= 1 bytes, which follow; t odd is
// a copy of (t>>1)+minCopy <= maxCopy bytes, followed by its distance d >= 1
// back from the end of the window: the record's query, the explanations
// before this one and what this one has produced so far. Verifiers quote
// the claim's context, attribute and entity, which the query holds, and
// the decisions of a record repeat each other's captions, so most of an
// explanation is copies. A token of at least two bytes produces at most
// maxCopy, so the decoder refuses a length past maxExpansion times the
// bytes left before it allocates.
//
// Seq is not stored: it is the record's position.

// dictionary interns the strings that repeat across records — instance,
// source, verifier and index-family names, verdicts — so a record holds
// small integers instead of string headers. It only grows, and its size
// follows the number of distinct such strings (the lake's instance count),
// not the number of records.
//
// The string → ID side is an open-addressing table whose slots hold the
// first dictInline bytes of the string themselves, not a Go map: encoding a
// record probes it some 400 times against a cache the verification just
// emptied, and a slot that answers from its own cache line misses once
// where a map misses on its control word, its key header and the key's
// bytes (Append measured a sixth faster inside a real verify loop). It is
// also free of pointers, so it comes from binfmt.OffHeap (see slotTable).
type dictionary struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	table *slotTable // nil until the first add
	strs  []string   // ID → string
}

// slotTable owns one slot table of a dictionary: where the platform maps
// memory the slots are an anonymous mapping (binfmt.OffHeap), which the
// collector neither scans nor counts, released once the dictionary has
// grown past the table and let go of it, or its store is unreachable.
// Every read of the slots goes through the dictionary, under its lock, so
// the table is reachable for as long as they are read.
type slotTable struct {
	slots  []dictSlot // length a power of two, at most half full
	mapped bool
}

// newSlotTable returns a table of n empty slots.
func newSlotTable(n int) *slotTable {
	t := new(slotTable)
	buf, mapped := binfmt.OffHeap(t, n*int(unsafe.Sizeof(dictSlot{})))
	t.slots, t.mapped = unsafe.Slice((*dictSlot)(unsafe.Pointer(unsafe.SliceData(buf))), n), mapped
	return t
}

// slotBytes returns the bytes of the slot table, and whether they are
// outside the Go heap.
func (d *dictionary) slotBytes() (n int64, offHeap bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.table == nil {
		return 0, false
	}
	return int64(len(d.table.slots)) * int64(unsafe.Sizeof(dictSlot{})), d.table.mapped
}

const dictInline = 24

type dictSlot struct {
	id   uint32 // 1 + ID; 0 marks an empty slot
	n    uint32 // len of the string
	head [dictInline]byte
}

// hash is the hash find takes. It needs no lock: the seed never changes.
func (d *dictionary) hash(s string) uint64 { return maphash.String(d.seed, s) }

// find returns s's ID; h is d.hash(s). The caller holds mu.
func (d *dictionary) find(s string, h uint64) (uint32, bool) {
	if d.table == nil {
		return 0, false
	}
	slots := d.table.slots
	head := s[:min(len(s), dictInline)]
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := &slots[i]
		if slot.id == 0 {
			return 0, false
		}
		if int(slot.n) == len(s) && string(slot.head[:len(head)]) == head &&
			(len(s) <= dictInline || d.strs[slot.id-1][dictInline:] == s[dictInline:]) {
			return slot.id - 1, true
		}
	}
}

// place puts strs[id] into the first free slot of its probe sequence.
func (d *dictionary) place(id uint32) {
	s := d.strs[id]
	slots := d.table.slots
	mask := uint64(len(slots) - 1)
	i := d.hash(s) & mask
	for slots[i].id != 0 {
		i = (i + 1) & mask
	}
	slot := &slots[i]
	slot.id, slot.n = id+1, uint32(len(s))
	copy(slot.head[:], s)
}

// add interns s, returning its ID. The dictionary keeps its own copy of the
// bytes, so it never pins a caller's larger buffer.
func (d *dictionary) add(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.find(s, d.hash(s)); ok {
		return id
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, strings.Clone(s))
	if d.table == nil || 2*len(d.strs) > len(d.table.slots) {
		n := 64
		if d.table != nil {
			n = 2 * len(d.table.slots)
		}
		d.table = newSlotTable(n)
		for old := range d.strs {
			d.place(uint32(old))
		}
	} else {
		d.place(id)
	}
	return id
}

// lookup returns the ID of s if it was ever interned.
func (d *dictionary) lookup(s string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.find(s, d.hash(s))
}

// snapshot returns the ID → string table as of now. Entries are never
// rewritten, so the slice stays valid without the lock; a record published
// before the call only names IDs below its length.
func (d *dictionary) snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs
}

// Explanation copies (see the wire format).
const (
	minCopy = 4
	maxCopy = minCopy + 63 // the longest copy whose token is one byte
	// maxExpansion bounds the text one coded byte yields: a copy token and
	// its distance take two bytes or more, a literal one more than it holds.
	maxExpansion = (maxCopy + 1) / 2
	winHashBits  = 10 // the encoder's window hash: 4 KB, cleared per record
)

// encoder is the pooled scratch state of one Append.
type encoder struct {
	dict *dictionary
	buf  []byte
	// evidence lists the dictionary IDs of the decisions' instances, one per
	// decision, for the store's evidence postings.
	evidence []uint32
	// fused sums each hit instance's reciprocal-rank score, in hit order,
	// to test whether the record's fused list is the hits' fusion: an
	// open-addressing table, at most half full. distinct counts its
	// occupied slots.
	fused    []fuseSlot
	distinct int
	// win is the explanations' copy window, the query and the explanations
	// written so far; head maps a hash of 4 bytes to 1 + the last window
	// position they start at, 0 for none. Positions inside a copy are not
	// entered: that costs a few bytes a record and saves hashing most of
	// the text.
	win  []byte
	head [1 << winHashBits]int32
}

type fuseSlot struct {
	hash  uint64 // the instance's dictionary hash
	hit   uint32 // 1 + the index of its first hit; 0 marks an empty slot
	score float64
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode fills e.buf and e.evidence from r, interning into d. The
// dictionary's read lock is held across the whole record and given up only
// to insert a string not seen before.
func (e *encoder) encode(d *dictionary, r *Record) {
	e.dict = d
	e.buf = e.buf[:0]
	e.evidence = e.evidence[:0]
	d.mu.RLock()
	defer func() {
		d.mu.RUnlock()
		e.dict = nil // a pooled encoder must not keep a discarded store alive
	}()

	e.raw(r.ObjectID)
	e.raw(r.Query)
	e.uvarint(uint64(e.intern(r.FinalVerdict)))
	e.uvarint(uint64(e.intern(r.Resolution)))

	e.count(len(r.Reranked), r.Reranked == nil)
	for i := 0; i < len(r.Reranked); {
		run := i + 1
		for run < len(r.Reranked) && r.Reranked[run].Rank == r.Reranked[run-1].Rank+1 {
			run++
		}
		e.buf = binary.AppendVarint(e.buf, int64(r.Reranked[i].Rank))
		e.uvarint(uint64(run - i))
		for ; i < run; i++ {
			e.scored(uint64(e.intern(r.Reranked[i].InstanceID)), r.Reranked[i].Score)
		}
	}

	e.count(len(r.Decisions), r.Decisions == nil)
	if r.Decisions != nil {
		total := 0
		for i := range r.Decisions {
			total += len(r.Decisions[i].Explanation)
		}
		e.uvarint(uint64(total))
		e.openWindow(r.Query)
	}
	for i := range r.Decisions {
		dec := &r.Decisions[i]
		id := e.intern(dec.InstanceID)
		e.evidence = append(e.evidence, id)
		e.scored(uint64(id), dec.SourceTrust)
		e.uvarint(uint64(e.intern(dec.SourceID)))
		e.uvarint(uint64(e.intern(dec.Verifier)))
		e.uvarint(uint64(e.intern(dec.Verdict)))
		e.text(dec.Explanation)
	}

	e.count(len(r.Hits), r.Hits == nil)
	e.openFusion(len(r.Hits))
	for i := 0; i < len(r.Hits); {
		run := i + 1
		for run < len(r.Hits) && r.Hits[run].Index == r.Hits[i].Index && r.Hits[run].Rank == r.Hits[run-1].Rank+1 {
			run++
		}
		e.uvarint(uint64(e.intern(r.Hits[i].Index)))
		e.buf = binary.AppendVarint(e.buf, int64(r.Hits[i].Rank))
		e.uvarint(uint64(run - i))
		var prev uint64
		for first := i; i < run; i++ {
			h := &r.Hits[i]
			hash := e.dict.hash(h.InstanceID)
			e.uvarint(uint64(e.internHashed(h.InstanceID, hash)))
			bits := math.Float64bits(h.Score)
			if i == first {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
			} else {
				e.buf = binary.AppendVarint(e.buf, int64(prev-bits))
			}
			prev = bits
			slot, found := e.fuseSlot(r.Hits, h.InstanceID, hash)
			if !found {
				*slot = fuseSlot{hash: hash, hit: uint32(i + 1)}
				e.distinct++
			}
			slot.score += rrf(h.Rank)
		}
	}

	switch {
	case r.Combined == nil:
		e.uvarint(0)
	case e.isFusion(r.Hits, r.Combined):
		e.uvarint(1)
	default:
		e.uvarint(uint64(len(r.Combined)) + 2)
		for _, id := range r.Combined {
			e.uvarint(uint64(e.intern(id)))
		}
	}
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *encoder) raw(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) count(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

// intern returns s's dictionary ID. It is called with the dictionary's read
// lock held and returns with it held.
func (e *encoder) intern(s string) uint32 { return e.internHashed(s, e.dict.hash(s)) }

// internHashed is intern given h = e.dict.hash(s).
func (e *encoder) internHashed(s string, h uint64) uint32 {
	if id, ok := e.dict.find(s, h); ok {
		return id
	}
	e.dict.mu.RUnlock()
	id := e.dict.add(s)
	e.dict.mu.RLock()
	return id
}

// scored writes v with the score's width in its low bit, then the score.
func (e *encoder) scored(v uint64, score float64) {
	bits := math.Float64bits(score)
	if f32 := float32(score); math.Float64bits(float64(f32)) == bits {
		e.uvarint(v<<1 | 1)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(f32))
		return
	}
	e.uvarint(v << 1)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
}

// openFusion empties the fusion table and sizes it for n hits.
func (e *encoder) openFusion(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(e.fused) < size {
		e.fused = make([]fuseSlot, size)
	}
	e.fused = e.fused[:size]
	clear(e.fused)
	e.distinct = 0
}

// fuseSlot returns the fusion table's slot for hit instance s, whose
// dictionary hash is h, or false and the empty slot where it goes. The
// table is keyed by the hash find takes, so a fused list is checked
// without probing the dictionary's far larger table.
func (e *encoder) fuseSlot(hits []RetrievalHit, s string, h uint64) (*fuseSlot, bool) {
	mask := uint64(len(e.fused) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := &e.fused[i]
		if slot.hit == 0 || slot.hash == h && hits[slot.hit-1].InstanceID == s {
			return slot, slot.hit != 0
		}
	}
}

// isFusion reports whether combined is Combine(hits), the hits just
// encoded, without building it: combined must hold as many hit instances
// as there are distinct ones, each in fusedBefore order after the one
// before it. That order is strict and total while no score is NaN, so
// such a list names each instance once, and it is the one list Combine's
// sort can return. Reciprocal ranks are never NaN; the check keeps the
// argument from resting on that.
func (e *encoder) isFusion(hits []RetrievalHit, combined []string) bool {
	if len(combined) == 0 || len(combined) != e.distinct {
		return false
	}
	var prev *fuseSlot
	for i, s := range combined {
		slot, found := e.fuseSlot(hits, s, e.dict.hash(s))
		if !found || math.IsNaN(slot.score) ||
			i > 0 && !fusedBefore(prev.score, combined[i-1], slot.score, s) {
			return false
		}
		prev = slot
	}
	return true
}

// openWindow starts a record's copy window with its query.
func (e *encoder) openWindow(query string) {
	clear(e.head[:])
	e.win = append(e.win[:0], query...)
	for p := 0; p+minCopy <= len(e.win); p++ {
		e.head[e.winHash(p)] = int32(p + 1)
	}
}

// winHash hashes the minCopy bytes at window position p.
func (e *encoder) winHash(p int) uint32 {
	return binary.LittleEndian.Uint32(e.win[p:]) * 0x9e3779b1 >> (32 - winHashBits)
}

// text writes an explanation as literals and copies from the window,
// greedily taking the last earlier position whose four bytes match, and
// adds it to the window.
func (e *encoder) text(s string) {
	e.uvarint(uint64(len(s)))
	lit := len(e.win)
	e.win = append(e.win, s...)
	win, end := e.win, len(e.win)
	for p := lit; p+minCopy <= end; {
		h := e.winHash(p)
		from := int(e.head[h]) - 1
		e.head[h] = int32(p + 1)
		if from < 0 || from >= p || binary.LittleEndian.Uint32(win[from:]) != binary.LittleEndian.Uint32(win[p:]) {
			p++
			continue
		}
		n := minCopy
		for n < maxCopy && p+n < end && win[from+n] == win[p+n] {
			n++
		}
		e.literal(win[lit:p])
		e.uvarint(uint64(n-minCopy)<<1 | 1)
		e.uvarint(uint64(p - from))
		p += n
		lit = p
	}
	e.literal(win[lit:end])
}

// literal writes b as one literal token, or nothing when it is empty.
func (e *encoder) literal(b []byte) {
	if len(b) > 0 {
		e.uvarint(uint64(len(b)) << 1)
		e.buf = append(e.buf, b...)
	}
}

var errCorrupt = errors.New("provenance: corrupt record")

// decoder reads one encoded record. The first failure sticks: every later
// read returns a zero value, so callers check err once per list and at the
// end.
type decoder struct {
	b    []byte
	dict []string
	// query and text are the explanations' copy window: the record's query,
	// still in b's bytes, then the explanations decoded so far, in one
	// buffer sized to their declared total so it never moves.
	query []byte
	text  []byte
	err   error
}

// decodeRecord decodes one record against a dictionary snapshot. Every
// length and count is checked against the bytes that remain before anything
// is allocated, and trailing bytes are an error.
func decodeRecord(b []byte, dict []string) (Record, error) {
	return decode(b, dict, true)
}

// decodeOutcome reads only a record's outcome: the first part of
// decodeRecord's walk, which ends before the hits. It fails where that
// part fails, and where decodeRecord succeeds it agrees with it.
func decodeOutcome(b []byte, dict []string) (Outcome, error) {
	r, err := decode(b, dict, false)
	return Outcome{FinalVerdict: r.FinalVerdict, Reranked: r.Reranked, Decisions: r.Decisions}, err
}

// decode walks one record, or with full unset its outcome alone, skipping
// the object ID, keeping the query only as the explanations' window, and
// stopping before the hits.
func decode(b []byte, dict []string, full bool) (Record, error) {
	d := decoder{b: b, dict: dict}
	var r Record
	objectID := d.raw()
	d.query = d.raw()
	if full {
		r.ObjectID, r.Query = string(objectID), string(d.query)
	}
	r.FinalVerdict = d.str(d.uvarint())
	r.Resolution = d.str(d.uvarint())

	// A rerank entry is at least an instance byte and four score bytes.
	if n, ok := d.count(5); ok {
		r.Reranked = make([]RerankEntry, 0, n)
		for len(r.Reranked) < n && d.err == nil {
			rank := d.varint()
			run := d.run(n - len(r.Reranked))
			for i := 0; i < run && d.err == nil; i++ {
				v, f32 := d.flagged()
				r.Reranked = append(r.Reranked, RerankEntry{
					InstanceID: d.str(v), Score: d.score(f32), Rank: int(rank) + i,
				})
			}
		}
	}

	// A decision is an instance, a four-byte trust, three dictionary IDs
	// and an explanation length.
	if n, ok := d.count(9); ok {
		d.openText()
		r.Decisions = make([]VerifierDecision, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			v, f32 := d.flagged()
			r.Decisions = append(r.Decisions, VerifierDecision{
				InstanceID:  d.str(v),
				SourceTrust: d.score(f32),
				SourceID:    d.str(d.uvarint()),
				Verifier:    d.str(d.uvarint()),
				Verdict:     d.str(d.uvarint()),
				Explanation: d.explanation(),
			})
		}
		if d.err == nil && len(d.text) != cap(d.text) {
			d.fail("explanations of %d bytes, %d declared", len(d.text), cap(d.text))
		}
	}
	if full {
		d.rest(&r)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
}

// rest reads what follows a record's outcome: the hits and the fused
// list, then checks that nothing trails them.
func (d *decoder) rest(r *Record) {
	// A hit is at least an instance byte and a one-byte score delta.
	if n, ok := d.count(2); ok {
		r.Hits = make([]RetrievalHit, 0, n)
		for len(r.Hits) < n && d.err == nil {
			index := d.str(d.uvarint())
			rank := d.varint()
			run := d.run(n - len(r.Hits))
			var bits uint64
			for i := 0; i < run && d.err == nil; i++ {
				id := d.str(d.uvarint())
				if i == 0 {
					if b := d.take(8); b != nil {
						bits = binary.LittleEndian.Uint64(b)
					}
				} else {
					bits -= uint64(d.varint())
				}
				r.Hits = append(r.Hits, RetrievalHit{
					Index: index, InstanceID: id, Score: math.Float64frombits(bits), Rank: int(rank) + i,
				})
			}
		}
	}

	switch v := d.uvarint(); {
	case d.err != nil || v == 0:
	case v == 1:
		if len(r.Hits) == 0 {
			d.fail("fused list of no hits")
			break
		}
		r.Combined = Combine(r.Hits)
	case v-2 > uint64(len(d.b)):
		d.fail("fused list of %d exceeds the %d bytes left", v-2, len(d.b))
	default:
		r.Combined = make([]string, 0, v-2)
		for i := uint64(0); i < v-2 && d.err == nil; i++ {
			r.Combined = append(r.Combined, d.str(d.uvarint()))
		}
	}

	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
}

// openText reads the explanations' total length and sets their buffer
// aside.
func (d *decoder) openText() {
	total := d.uvarint()
	if d.err == nil && total > maxExpansion*uint64(len(d.b)) {
		d.fail("explanations of %d bytes from the %d left", total, len(d.b))
	}
	if d.err == nil && total > 0 {
		d.text = make([]byte, 0, total)
	}
}

// explanation decodes one explanation into the text buffer and returns a
// view of it: the buffer never moves and the bytes are never rewritten.
func (d *decoder) explanation() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(cap(d.text)-len(d.text)) {
		d.fail("explanation of %d bytes, %d of the declared total left", n, cap(d.text)-len(d.text))
	}
	start := len(d.text)
	for d.err == nil && uint64(len(d.text)-start) < n {
		left := n - uint64(len(d.text)-start)
		t := d.uvarint()
		if t&1 == 0 {
			if k := t >> 1; k == 0 || k > left {
				d.fail("literal of %d bytes with %d left", k, left)
			} else {
				d.text = append(d.text, d.take(k)...)
			}
			continue
		}
		k, dist := t>>1, d.uvarint()
		window := uint64(len(d.query) + len(d.text))
		switch {
		case d.err != nil:
		case k > maxCopy-minCopy || k+minCopy > left:
			d.fail("copy of %d bytes with %d left", k+minCopy, left)
		case dist == 0 || dist > window:
			d.fail("copy from %d back in a window of %d", dist, window)
		default:
			// Byte by byte: a copy may overlap what it produces.
			from := int(window - dist)
			for end := from + int(k+minCopy); from < end; from++ {
				if from < len(d.query) {
					d.text = append(d.text, d.query[from])
				} else {
					d.text = append(d.text, d.text[from-len(d.query)])
				}
			}
		}
	}
	if d.err != nil || n == 0 {
		return ""
	}
	return unsafe.String(&d.text[start], n)
}

// decodeObjectID reads only a record's object ID, its first field.
func decodeObjectID(b []byte) (string, error) {
	d := decoder{b: b}
	id := string(d.raw())
	return id, d.err
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// take returns the next n bytes.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("%d bytes wanted, %d left", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) raw() []byte { return d.take(d.uvarint()) }

// count reads a list count whose elements each take at least minSize bytes;
// ok is false for a nil list (and after a failure).
func (d *decoder) count(minSize int) (n int, ok bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, false
	}
	v--
	if v > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.b))
		return 0, false
	}
	return int(v), true
}

// run reads a run length, which must be in [1, left].
func (d *decoder) run(left int) int {
	v := d.uvarint()
	if d.err == nil && (v == 0 || v > uint64(left)) {
		d.fail("run of %d with %d entries left", v, left)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// flagged splits a value from the score-width bit under it.
func (d *decoder) flagged() (v uint64, f32 bool) {
	v = d.uvarint()
	return v >> 1, v&1 == 1
}

func (d *decoder) score(f32 bool) float64 {
	if f32 {
		if b := d.take(4); b != nil {
			return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
		}
		return 0
	}
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *decoder) str(id uint64) string {
	if d.err != nil {
		return ""
	}
	if id >= uint64(len(d.dict)) {
		d.fail("dictionary ID %d of %d", id, len(d.dict))
		return ""
	}
	return d.dict[id]
}
