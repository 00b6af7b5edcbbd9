// Package provenance records the lineage of the end-to-end verification
// process — challenge C4 of the paper: which indexes retrieved which
// instances with what scores, how the reranker reordered them, what each
// verifier decided, and how the final verdict was resolved. Records support
// later human checks and debugging when retrieved data is flawed or the
// verification itself errs.
//
// The store keeps records encoded (codec.go) in a byte arena of fixed-size
// segments rather than as Go structs: a claim's record costs about 1.85 KB
// of memory the garbage collector never scans (its fused list derived from
// its hits, hit scores delta-coded, explanations copying from the record's
// own text), and every Record handed out is decoded afresh, so callers
// share nothing with the store or with each other. The
// segments, and the slot table of the dictionary that interns the strings
// records repeat, come from binfmt.OffHeap: where the platform maps memory
// they sit outside the Go heap, so lineage does not raise the collector's
// heap goal either.
package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/obs"
)

// RetrievalHit is one index hit.
type RetrievalHit struct {
	// Index names the index that produced the hit ("bm25", "vector").
	Index string `json:"index"`
	// InstanceID is the retrieved lake instance.
	InstanceID string `json:"instance_id"`
	// Score is the index's native score.
	Score float64 `json:"score"`
	// Rank is the hit's position in that index's result list (0-based).
	Rank int `json:"rank"`
}

// RerankEntry is one reranked candidate.
type RerankEntry struct {
	InstanceID string  `json:"instance_id"`
	Score      float64 `json:"score"`
	Rank       int     `json:"rank"`
}

// VerifierDecision is one verifier verdict over one evidence instance.
type VerifierDecision struct {
	InstanceID  string  `json:"instance_id"`
	SourceID    string  `json:"source_id"`
	Verifier    string  `json:"verifier"`
	Verdict     string  `json:"verdict"`
	Explanation string  `json:"explanation"`
	SourceTrust float64 `json:"source_trust"`
}

// Record is the full lineage of one verification run.
type Record struct {
	// Seq is the record's sequence number within the store.
	Seq int `json:"seq"`
	// ObjectID identifies the generated data object.
	ObjectID string `json:"object_id"`
	// Query is the serialized retrieval query.
	Query string `json:"query"`
	// Hits are the raw index hits (all indexes).
	Hits []RetrievalHit `json:"hits"`
	// Combined is the deduplicated candidate list after the Combiner.
	Combined []string `json:"combined"`
	// Reranked is the task-aware top-k′ ordering.
	Reranked []RerankEntry `json:"reranked"`
	// Decisions are the per-evidence verdicts.
	Decisions []VerifierDecision `json:"decisions"`
	// FinalVerdict is the resolved overall verdict.
	FinalVerdict string `json:"final_verdict"`
	// Resolution describes how the final verdict was derived
	// ("trust-weighted majority", "unanimous", ...).
	Resolution string `json:"resolution"`
}

// Outcome is what one verification decided, as its record keeps it: the
// resolved verdict, the reranked top-k′ with their scores, and the decision
// over each of them. It is the part of a Record that a verification's
// result is rebuilt from.
type Outcome struct {
	FinalVerdict string
	Reranked     []RerankEntry
	Decisions    []VerifierDecision
}

// Combine merges hits from all indexes, deduplicating by instance ID — the
// Combiner of Section 3.1. Ordering uses reciprocal-rank fusion
// (score = Σ 1/(60+rank) over the index lists containing the instance), the
// standard way to merge rankings from incomparable scoring functions:
// instances both families agree on rise, and one family's noise cannot bury
// the other's best hits. A record's fused list is nearly always Combine of
// its hits, and the store keeps only that fact.
func Combine(hits []RetrievalHit) []string {
	if len(hits) == 0 {
		return nil
	}
	scores := make(map[string]float64, len(hits))
	order := make([]string, 0, len(hits))
	for _, h := range hits {
		if _, seen := scores[h.InstanceID]; !seen {
			order = append(order, h.InstanceID)
		}
		scores[h.InstanceID] += rrf(h.Rank)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return fusedBefore(scores[order[i]], order[i], scores[order[j]], order[j])
	})
	return order
}

// rrf is a hit's reciprocal-rank score.
func rrf(rank int) float64 {
	const k = 60
	return 1 / float64(k+rank)
}

// fusedBefore reports whether an instance with fused score si and ID i
// comes before one with sj and j: higher scores first, ties by ID.
func fusedBefore(si float64, i string, sj float64, j string) bool {
	return si > sj || si == sj && i < j
}

// segmentSize is the capacity of one arena segment. A record never spans
// segments: one that does not fit what is left of the active segment seals
// it and opens the next, and one larger than a whole segment gets a segment
// of its own size.
const segmentSize = 1 << 20

// segment is a stretch of consecutive records. Only the last segment of a
// store (the active one) is appended to, and only past len(data) and
// len(recs); everything below those is immutable, in sealed and active
// segments alike, which is what lets readers decode without the lock.
type segment struct {
	first  int    // seq of recs[0]
	data   []byte // from binfmt.OffHeap, owned by the store
	recs   []recordMeta
	mapped bool // data is an anonymous mapping, not heap
}

// recordMeta is a record's entry in its segment's offset table.
type recordMeta struct {
	off uint32 // start in segment.data; the record ends where the next starts
	// prevObject is 1 + the seq of the previous record whose object ID has
	// the same hash, 0 for none: ByObject's chain.
	prevObject uint32
}

// bytes returns the encoded record at position i.
func (g *segment) bytes(i int) []byte {
	end := len(g.data)
	if i+1 < len(g.recs) {
		end = int(g.recs[i+1].off)
	}
	return g.data[g.recs[i].off:end:end]
}

// posting links one decision to its record and to the previous decision
// over the same instance.
type posting struct {
	seq  uint32
	prev uint32 // 1 + index in Store.postings, 0 for none
}

// Store accumulates verification records. It is safe for concurrent use.
// Nothing is ever evicted: memory grows by the encoded size of each record.
type Store struct {
	dict dictionary

	// mu guards everything below. None of it holds a pointer per record:
	// the maps have integer keys and values and the slices integer structs,
	// so the collector skips their contents.
	mu       sync.RWMutex
	segs     []*segment // ascending by first; the last one is active
	n        int
	used     int64             // encoded bytes in segs' data
	offHeap  int64             // the part of used in mapped segments
	byObject map[uint64]uint32 // object ID hash → 1 + seq of its newest record
	// evidence maps the dictionary ID of an instance to the head of its
	// postings: 1 + the index in postings of the newest decision over it.
	evidence map[uint32]uint32
	postings []posting
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dict:     dictionary{seed: maphash.MakeSeed()},
		byObject: make(map[uint64]uint32),
		evidence: make(map[uint32]uint32),
	}
}

// objectHash keys byObject. Collisions are harmless: ByObject filters its
// chain by the decoded object ID.
func (s *Store) objectHash(objectID string) uint64 {
	return maphash.String(s.dict.seed, objectID)
}

// Append adds a record, assigning its sequence number. The record is
// encoded before Append returns and nothing of r is retained. r.Seq is
// ignored.
func (s *Store) Append(r Record) int {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.encode(&s.dict, &r)
	hash := s.objectHash(r.ObjectID)

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.n
	s.n++
	g := s.activeSegment(seq, len(e.buf))
	g.recs = append(g.recs, recordMeta{off: uint32(len(g.data)), prevObject: s.byObject[hash]})
	g.data = append(g.data, e.buf...) // within cap: activeSegment made room
	s.used += int64(len(e.buf))
	if g.mapped {
		s.offHeap += int64(len(e.buf))
	}
	s.byObject[hash] = uint32(seq + 1)
	for _, id := range e.evidence {
		s.postings = append(s.postings, posting{seq: uint32(seq), prev: s.evidence[id]})
		s.evidence[id] = uint32(len(s.postings))
	}
	return seq
}

// activeSegment returns the segment that record seq of size bytes goes
// into, sealing the current one if the record does not fit.
func (s *Store) activeSegment(seq, size int) *segment {
	if len(s.segs) > 0 {
		if g := s.segs[len(s.segs)-1]; size <= cap(g.data)-len(g.data) {
			return g
		}
	}
	data, mapped := binfmt.OffHeap(s, max(size, segmentSize))
	g := &segment{first: seq, data: data[:0], mapped: mapped}
	s.segs = append(s.segs, g)
	return g
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// encoded returns record seq's bytes and offset-table entry. The caller
// holds mu and seq is in range; the bytes stay valid after unlocking for as
// long as s is reachable.
func (s *Store) encoded(seq int) ([]byte, recordMeta) {
	g := s.segs[sort.Search(len(s.segs), func(i int) bool { return s.segs[i].first > seq })-1]
	return g.bytes(seq - g.first), g.recs[seq-g.first]
}

// decode turns a record's bytes back into a Record. The arena only holds
// what Append encoded, so a failure is a bug, not an input error.
func (s *Store) decode(seq int, b []byte) Record {
	r, err := decodeRecord(b, s.dict.snapshot())
	runtime.KeepAlive(s) // b may lie in a segment s's cleanup unmaps
	if err != nil {
		panic(fmt.Sprintf("provenance: record %d: %v", seq, err))
	}
	r.Seq = seq
	return r
}

// encodedRecord returns record seq's bytes, or false when there is no such
// record.
func (s *Store) encodedRecord(seq int) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if seq < 0 || seq >= s.n {
		return nil, false
	}
	b, _ := s.encoded(seq)
	return b, true
}

// Get returns the record with the given sequence number.
func (s *Store) Get(seq int) (Record, bool) {
	b, ok := s.encodedRecord(seq)
	if !ok {
		return Record{}, false
	}
	return s.decode(seq, b), true
}

// Outcome returns the outcome of the record with the given sequence
// number. It reads the record as Get does, up to where the hits begin, so
// it costs the outcome's own bytes and allocations and no more.
func (s *Store) Outcome(seq int) (Outcome, bool) {
	b, ok := s.encodedRecord(seq)
	if !ok {
		return Outcome{}, false
	}
	o, err := decodeOutcome(b, s.dict.snapshot())
	runtime.KeepAlive(s) // as in decode
	if err != nil {
		panic(fmt.Sprintf("provenance: record %d: %v", seq, err))
	}
	return o, true
}

// ByObject returns all records for a generated object, oldest first.
func (s *Store) ByObject(objectID string) []Record {
	type found struct {
		seq int
		b   []byte
	}
	var chain []found // newest first; may hold other objects with the same hash
	s.mu.RLock()
	for next := s.byObject[s.objectHash(objectID)]; next != 0; {
		seq := int(next - 1)
		b, meta := s.encoded(seq)
		chain = append(chain, found{seq, b})
		next = meta.prevObject
	}
	s.mu.RUnlock()
	out := make([]Record, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		if r := s.decode(chain[i].seq, chain[i].b); r.ObjectID == objectID {
			out = append(out, r)
		}
	}
	return out
}

// TaintedBy returns the object IDs whose verification used the given
// instance as evidence, sorted.
func (s *Store) TaintedBy(instanceID string) []string {
	id, ok := s.dict.lookup(instanceID)
	if !ok {
		return []string{}
	}
	var encoded [][]byte
	s.mu.RLock()
	for next := s.evidence[id]; next != 0; {
		p := s.postings[next-1]
		b, _ := s.encoded(int(p.seq))
		encoded = append(encoded, b)
		next = p.prev
	}
	s.mu.RUnlock()
	seen := make(map[string]struct{}, len(encoded))
	out := make([]string, 0, len(encoded))
	for _, b := range encoded {
		obj, err := decodeObjectID(b)
		if err != nil {
			panic(fmt.Sprintf("provenance: %v", err))
		}
		if _, dup := seen[obj]; !dup {
			seen[obj] = struct{}{}
			out = append(out, obj)
		}
	}
	runtime.KeepAlive(s) // until the last of encoded is read
	sort.Strings(out)
	return out
}

// WriteJSON streams all records as a JSON array. The store is locked only
// to note where each segment ends; records appended after that are not
// written, and appends proceed while w is slow.
func (s *Store) WriteJSON(w io.Writer) error {
	s.mu.RLock()
	segs := make([]segment, len(s.segs))
	for i, g := range s.segs {
		segs[i] = *g
	}
	s.mu.RUnlock()
	if len(segs) == 0 {
		// What encoding/json writes for the nil slice an empty store used
		// to hold; decoding it gives no records.
		_, err := io.WriteString(w, "null\n")
		return err
	}
	var buf bytes.Buffer
	for _, g := range segs {
		for i := range g.recs {
			buf.Reset()
			if g.first+i == 0 {
				buf.WriteString("[\n  ")
			} else {
				buf.WriteString(",\n  ")
			}
			js, err := json.MarshalIndent(s.decode(g.first+i, g.bytes(i)), "  ", "  ")
			if err != nil {
				return fmt.Errorf("provenance: encode record %d: %w", g.first+i, err)
			}
			buf.Write(js)
			if _, err := w.Write(buf.Bytes()); err != nil {
				return fmt.Errorf("provenance: write record %d: %w", g.first+i, err)
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// Stats is a point-in-time size summary of a store.
type Stats struct {
	// Records is Len.
	Records int `json:"records"`
	// Bytes is the memory lineage occupies: the encoded records (about
	// 1.85 KB for a claim's over the default lake, 3.3 KB for a tuple's)
	// plus the offset tables and evidence postings (8 bytes a record and
	// 8 a decision), and the dictionary's slot table (32 bytes a slot, at
	// most half of them used). Not counted: the object
	// and evidence maps (some 30 bytes a record) and the dictionary's
	// strings, nor the unwritten tail of each segment: a segment reserves
	// 1 MiB of address space (Segments × 1 MiB in all), but a mapped one is
	// resident only as far as it is written.
	Bytes int64 `json:"bytes"`
	// OffHeapBytes is the part of Bytes outside the Go heap: the encoded
	// records in mapped segments and the slot table when it is mapped (all
	// of them unless binfmt.OffHeap fell back to the heap). The rest of
	// Bytes is Go heap.
	OffHeapBytes int64 `json:"off_heap_bytes"`
	// Segments counts arena segments, the active one included.
	Segments int `json:"segments"`
	// DictionaryEntries is the number of interned strings.
	DictionaryEntries int `json:"dictionary_entries"`
}

// Stats reports the store's current size.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Records: s.n,
		// A recordMeta and a posting are 8 bytes each.
		Bytes:        s.used + 8*int64(s.n) + 8*int64(len(s.postings)),
		OffHeapBytes: s.offHeap,
		Segments:     len(s.segs),
	}
	s.mu.RUnlock()
	st.DictionaryEntries = len(s.dict.snapshot())
	slots, offHeap := s.dict.slotBytes()
	st.Bytes += slots
	if offHeap {
		st.OffHeapBytes += slots
	}
	return st
}

// SetMetrics registers the store's size gauges in reg.
func (s *Store) SetMetrics(reg *obs.Registry) {
	reg.GaugeFunc("verifai_provenance_records", "Lineage records held by the provenance store.",
		func() float64 { return float64(s.Stats().Records) })
	reg.GaugeFunc("verifai_provenance_bytes", "Bytes of encoded lineage records, offset tables and evidence postings.",
		func() float64 { return float64(s.Stats().Bytes) })
	reg.GaugeFunc("verifai_provenance_segments", "Provenance arena segments (sealed + active).",
		func() float64 { return float64(s.Stats().Segments) })
}
