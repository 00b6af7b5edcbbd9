package provenance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
)

// Record wire format inside a segment (all integers uvarint unless noted;
// "dict" is an ID in the store-wide dictionary; a list count is len+1, with
// 0 standing for a nil slice so nil and empty survive the round trip):
//
//	object_id   len, bytes
//	query       len, bytes
//	final       dict
//	resolution  dict
//	hits        count, then runs until count hits are covered:
//	              index dict, first rank (zigzag), run length >= 1,
//	              then per hit: dict<<1|f32, score
//	combined    count, then per entry: ref
//	reranked    count, then runs: first rank (zigzag), run length >= 1,
//	              then per entry: ref<<1|f32, score
//	decisions   count, then per decision: ref<<1|f32, trust,
//	              source dict, verifier dict, verdict dict,
//	              explanation len, bytes
//
// A run is a stretch whose ranks count up by one (and, for hits, whose index
// family is the same), so the ranks the pipeline produces cost three bytes
// per index list while any other rank sequence still round-trips. A ref
// names an instance: hit<<1 when some hit of this record carries the same
// instance ID (the position of the first such hit), dict<<1|1 otherwise. A
// score is its float32 bits (4 bytes LE) when f32 is set — chosen only when
// widening them reproduces the float64 bit for bit — and its float64 bits
// (8 bytes LE) otherwise. Seq is not stored: it is the record's position.

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
// also free of pointers.
type dictionary struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	slots []dictSlot // length a power of two, at most half full
	strs  []string   // ID → string
}

const dictInline = 24

type dictSlot struct {
	id   uint32 // 1 + ID; 0 marks an empty slot
	n    uint32 // len of the string
	head [dictInline]byte
}

// find returns s's ID. The caller holds mu.
func (d *dictionary) find(s string) (uint32, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	head := s[:min(len(s), dictInline)]
	mask := uint64(len(d.slots) - 1)
	for i := maphash.String(d.seed, s) & mask; ; i = (i + 1) & mask {
		slot := &d.slots[i]
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
	mask := uint64(len(d.slots) - 1)
	i := maphash.String(d.seed, s) & mask
	for d.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	slot := &d.slots[i]
	slot.id, slot.n = id+1, uint32(len(s))
	copy(slot.head[:], s)
}

// add interns s, returning its ID. The dictionary keeps its own copy of the
// bytes, so it never pins a caller's larger buffer.
func (d *dictionary) add(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.find(s); ok {
		return id
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, strings.Clone(s))
	if 2*len(d.strs) > len(d.slots) {
		d.slots = make([]dictSlot, max(64, 2*len(d.slots)))
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
	return d.find(s)
}

// snapshot returns the ID → string table as of now. Entries are never
// rewritten, so the slice stays valid without the lock; a record published
// before the call only names IDs below its length.
func (d *dictionary) snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs
}

// encoder is the pooled scratch state of one Append.
type encoder struct {
	dict *dictionary
	buf  []byte
	// firstHit maps an instance's dictionary ID to the position of the
	// first hit carrying it, for refs. It is direct-mapped on the ID's low
	// bits and the first ID to claim a slot keeps it; an instance that
	// loses its slot is simply written as a dictionary ID, a byte or two
	// longer.
	firstHit [1024]hitSlot
	// evidence lists the dictionary IDs of the decisions' instances, one per
	// decision, for the store's evidence postings.
	evidence []uint32
}

type hitSlot struct {
	id  uint32 // 1 + dictionary ID; 0 marks an empty slot
	pos uint32
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode fills e.buf and e.evidence from r, interning into d. The
// dictionary's read lock is held across the whole record and given up only
// to insert a string not seen before.
func (e *encoder) encode(d *dictionary, r *Record) {
	e.dict = d
	e.buf = e.buf[:0]
	e.evidence = e.evidence[:0]
	clear(e.firstHit[:])
	d.mu.RLock()
	defer func() {
		d.mu.RUnlock()
		e.dict = nil // a pooled encoder must not keep a discarded store alive
	}()

	e.raw(r.ObjectID)
	e.raw(r.Query)
	e.uvarint(uint64(e.intern(r.FinalVerdict)))
	e.uvarint(uint64(e.intern(r.Resolution)))

	e.count(len(r.Hits), r.Hits == nil)
	for i := 0; i < len(r.Hits); {
		run := i + 1
		for run < len(r.Hits) && r.Hits[run].Index == r.Hits[i].Index && r.Hits[run].Rank == r.Hits[run-1].Rank+1 {
			run++
		}
		e.uvarint(uint64(e.intern(r.Hits[i].Index)))
		e.buf = binary.AppendVarint(e.buf, int64(r.Hits[i].Rank))
		e.uvarint(uint64(run - i))
		for ; i < run; i++ {
			id := e.intern(r.Hits[i].InstanceID)
			if slot := &e.firstHit[id%uint32(len(e.firstHit))]; slot.id == 0 {
				*slot = hitSlot{id: id + 1, pos: uint32(i)}
			}
			e.scored(uint64(id), r.Hits[i].Score)
		}
	}

	e.count(len(r.Combined), r.Combined == nil)
	for _, id := range r.Combined {
		ref, _ := e.ref(id)
		e.uvarint(ref)
	}

	e.count(len(r.Reranked), r.Reranked == nil)
	for i := 0; i < len(r.Reranked); {
		run := i + 1
		for run < len(r.Reranked) && r.Reranked[run].Rank == r.Reranked[run-1].Rank+1 {
			run++
		}
		e.buf = binary.AppendVarint(e.buf, int64(r.Reranked[i].Rank))
		e.uvarint(uint64(run - i))
		for ; i < run; i++ {
			ref, _ := e.ref(r.Reranked[i].InstanceID)
			e.scored(ref, r.Reranked[i].Score)
		}
	}

	e.count(len(r.Decisions), r.Decisions == nil)
	for i := range r.Decisions {
		dec := &r.Decisions[i]
		ref, id := e.ref(dec.InstanceID)
		e.evidence = append(e.evidence, id)
		e.scored(ref, dec.SourceTrust)
		e.uvarint(uint64(e.intern(dec.SourceID)))
		e.uvarint(uint64(e.intern(dec.Verifier)))
		e.uvarint(uint64(e.intern(dec.Verdict)))
		e.raw(dec.Explanation)
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
func (e *encoder) intern(s string) uint32 {
	if id, ok := e.dict.find(s); ok {
		return id
	}
	e.dict.mu.RUnlock()
	id := e.dict.add(s)
	e.dict.mu.RLock()
	return id
}

// ref names an instance by the first hit that carries it, or by dictionary
// ID when no hit does; it also returns the dictionary ID.
func (e *encoder) ref(instanceID string) (ref uint64, dict uint32) {
	dict = e.intern(instanceID)
	if slot := e.firstHit[dict%uint32(len(e.firstHit))]; slot.id == dict+1 {
		return uint64(slot.pos) << 1, dict
	}
	return uint64(dict)<<1 | 1, dict
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

var errCorrupt = errors.New("provenance: corrupt record")

// decoder reads one encoded record. The first failure sticks: every later
// read returns a zero value, so callers check err once per list and at the
// end.
type decoder struct {
	b    []byte
	dict []string
	hits []RetrievalHit
	err  error
}

// decodeRecord decodes one record against a dictionary snapshot. Every
// length and count is checked against the bytes that remain before anything
// is allocated, and trailing bytes are an error.
func decodeRecord(b []byte, dict []string) (Record, error) {
	d := decoder{b: b, dict: dict}
	var r Record
	r.ObjectID = string(d.raw())
	r.Query = string(d.raw())
	r.FinalVerdict = d.str(d.uvarint())
	r.Resolution = d.str(d.uvarint())

	// A hit is at least a ref byte and four score bytes.
	if n, ok := d.count(5); ok {
		r.Hits = make([]RetrievalHit, 0, n)
		for len(r.Hits) < n && d.err == nil {
			index := d.str(d.uvarint())
			rank := d.varint()
			run := d.run(n - len(r.Hits))
			for i := 0; i < run && d.err == nil; i++ {
				v, f32 := d.flagged()
				r.Hits = append(r.Hits, RetrievalHit{
					Index: index, InstanceID: d.str(v), Score: d.score(f32), Rank: int(rank) + i,
				})
			}
		}
		d.hits = r.Hits
	}

	if n, ok := d.count(1); ok {
		r.Combined = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r.Combined = append(r.Combined, d.instance(d.uvarint()))
		}
	}

	if n, ok := d.count(5); ok {
		r.Reranked = make([]RerankEntry, 0, n)
		for len(r.Reranked) < n && d.err == nil {
			rank := d.varint()
			run := d.run(n - len(r.Reranked))
			for i := 0; i < run && d.err == nil; i++ {
				v, f32 := d.flagged()
				r.Reranked = append(r.Reranked, RerankEntry{
					InstanceID: d.instance(v), Score: d.score(f32), Rank: int(rank) + i,
				})
			}
		}
	}

	// A decision is a ref, a four-byte trust, three dictionary IDs and an
	// explanation length.
	if n, ok := d.count(9); ok {
		r.Decisions = make([]VerifierDecision, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			v, f32 := d.flagged()
			r.Decisions = append(r.Decisions, VerifierDecision{
				InstanceID:  d.instance(v),
				SourceTrust: d.score(f32),
				SourceID:    d.str(d.uvarint()),
				Verifier:    d.str(d.uvarint()),
				Verdict:     d.str(d.uvarint()),
				Explanation: string(d.raw()),
			})
		}
	}

	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
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

// instance resolves a ref against the record's hits or the dictionary.
func (d *decoder) instance(ref uint64) string {
	if ref&1 == 1 {
		return d.str(ref >> 1)
	}
	if d.err != nil {
		return ""
	}
	hit := ref >> 1
	if hit >= uint64(len(d.hits)) {
		d.fail("hit %d of %d", hit, len(d.hits))
		return ""
	}
	return d.hits[hit].InstanceID
}
