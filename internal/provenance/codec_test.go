package provenance

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// edgeRecords are the shapes the pipeline never produces but the codec must
// still carry losslessly.
func edgeRecords() []Record {
	bad := "\xff\xfe\x00not utf-8"
	long := strings.Repeat("p", dictInline) // two IDs that differ only past the inline prefix
	many := Record{ObjectID: "many", Hits: []RetrievalHit{}}
	for i := 0; i < 3000; i++ { // more distinct instances than the encoder's hit slots
		id := fmt.Sprintf("table:many-%04d", i)
		many.Hits = append(many.Hits, RetrievalHit{Index: "bm25", InstanceID: id, Score: float64(i), Rank: i})
		many.Combined = append(many.Combined, id)
	}
	return []Record{
		{},
		{ObjectID: "empty-not-nil", Hits: []RetrievalHit{}, Combined: []string{}, Reranked: []RerankEntry{}, Decisions: []VerifierDecision{}},
		{ObjectID: "one-hit", Hits: []RetrievalHit{{Index: "bm25", InstanceID: "table:t1", Score: 1.5}}},
		{
			ObjectID: bad, Query: bad, FinalVerdict: bad, Resolution: bad,
			Hits:      []RetrievalHit{{Index: bad, InstanceID: bad, Score: 1}},
			Combined:  []string{bad, ""},
			Reranked:  []RerankEntry{{InstanceID: bad}},
			Decisions: []VerifierDecision{{InstanceID: bad, SourceID: bad, Verifier: bad, Verdict: bad, Explanation: bad}},
		},
		{
			ObjectID: "scores",
			Hits: []RetrievalHit{
				{Index: "vector", InstanceID: "a", Score: math.NaN()},
				{Index: "vector", InstanceID: "b", Score: math.Float64frombits(0x7ff0000000000001), Rank: 1}, // signalling NaN
				{Index: "vector", InstanceID: "c", Score: math.Float64frombits(0xfff8000000abcdef), Rank: 2}, // NaN with a payload
				{Index: "vector", InstanceID: "d", Score: math.Inf(-1), Rank: 3},
				{Index: "vector", InstanceID: "e", Score: math.Copysign(0, -1), Rank: 4},
				{Index: "vector", InstanceID: "f", Score: 0.1, Rank: 5},                   // not a float32
				{Index: "vector", InstanceID: "g", Score: float64(float32(0.1)), Rank: 6}, // a float32
				{Index: "vector", InstanceID: "h", Score: math.SmallestNonzeroFloat64, Rank: 7},
				{Index: "vector", InstanceID: "i", Score: math.MaxFloat64, Rank: 8},
			},
			Reranked:  []RerankEntry{{InstanceID: "a", Score: math.NaN()}, {InstanceID: "zz", Score: math.Inf(1), Rank: 1}},
			Decisions: []VerifierDecision{{InstanceID: "a", SourceTrust: math.NaN()}, {InstanceID: "zz", SourceTrust: 0.8}},
		},
		{
			ObjectID: "ranks",
			Hits: []RetrievalHit{
				{Index: "bm25", InstanceID: "a", Rank: 7},
				{Index: "bm25", InstanceID: "b", Rank: 8},
				{Index: "vector", InstanceID: "a", Rank: 9}, // same instance, other index, rank still counting up
				{Index: "vector", InstanceID: "c", Rank: 3},
				{Index: "vector", InstanceID: "d", Rank: -5},
				{Index: "", InstanceID: "e", Rank: math.MaxInt},
				{Index: "", InstanceID: "f", Rank: math.MinInt},
			},
			Combined: []string{"c", "a", "not-a-hit", "a"},
			Reranked: []RerankEntry{{InstanceID: "f", Rank: 2}, {InstanceID: "not-a-hit", Rank: 1}, {InstanceID: "a", Rank: math.MinInt}},
		},
		{
			ObjectID: "long-ids",
			Hits:     []RetrievalHit{{InstanceID: long + "x"}, {InstanceID: long + "y", Rank: 1}, {InstanceID: long, Rank: 2}},
			Combined: []string{long + "y", long, long + "x", long + "z"},
		},
		many,
	}
}

// sameRecord is reflect.DeepEqual with scores compared by their bits, so a
// NaN equals itself and only itself.
func sameRecord(a, b Record) bool {
	ba, bb := takeScores(&a), takeScores(&b)
	return reflect.DeepEqual(ba, bb) && reflect.DeepEqual(a, b)
}

// takeScores returns the bits of every score in r, in order, and zeroes
// them in r, whose slices it replaces with copies first.
func takeScores(r *Record) []uint64 {
	var bits []uint64
	take := func(f *float64) {
		bits = append(bits, math.Float64bits(*f))
		*f = 0
	}
	if r.Hits != nil {
		r.Hits = append([]RetrievalHit{}, r.Hits...)
	}
	if r.Reranked != nil {
		r.Reranked = append([]RerankEntry{}, r.Reranked...)
	}
	if r.Decisions != nil {
		r.Decisions = append([]VerifierDecision{}, r.Decisions...)
	}
	for i := range r.Hits {
		take(&r.Hits[i].Score)
	}
	for i := range r.Reranked {
		take(&r.Reranked[i].Score)
	}
	for i := range r.Decisions {
		take(&r.Decisions[i].SourceTrust)
	}
	return bits
}

// TestCodecRoundTrip: every edge record reads back equal to itself, right
// after Append and again once its segment is sealed and a few more have
// filled up behind it. (Records captured from real claim, tuple and pinned
// runs get the same check in the root package's TestLineageLossless.)
func TestCodecRoundTrip(t *testing.T) {
	s := NewStore()
	var appended []Record
	check := func() {
		t.Helper()
		for seq, want := range appended {
			want.Seq = seq
			if got, ok := s.Get(seq); !ok || !sameRecord(got, want) {
				t.Fatalf("record %d (%q) after %d segments:\n got %+v\nwant %+v", seq, want.ObjectID, s.Stats().Segments, got, want)
			}
		}
	}
	add := func(r Record) {
		s.Append(r)
		appended = append(appended, r)
	}
	for _, r := range edgeRecords() {
		add(r)
		check()
	}
	add(Record{ObjectID: "nearly-a-segment", Query: strings.Repeat("x", segmentSize-100)})
	add(Record{ObjectID: "more-than-a-segment", Query: strings.Repeat("y", segmentSize+100)})
	for _, r := range edgeRecords() {
		add(r)
	}
	if got := s.Stats().Segments; got < 4 {
		t.Fatalf("only %d segments; the test means to cross seals", got)
	}
	check()
	if got := s.ByObject("more-than-a-segment"); len(got) != 1 || len(got[0].Query) != segmentSize+100 {
		t.Fatalf("oversized record: %d records", len(got))
	}
}

// fuzzDictionary is the fixed dictionary fuzz inputs decode against.
var fuzzDictionary = []string{"", "bm25", "vector", "table:t1", "tuple:t1#0", "text:d1", "s1", "chatgpt-sim", "Verified", "Refuted", "trust-weighted majority", "\xff\xfe"}

func fuzzStore() *Store {
	s := NewStore()
	for _, str := range fuzzDictionary {
		s.dict.add(str)
	}
	return s
}

// FuzzDecodeProvenanceRecord feeds arbitrary bytes to the record decoder. It
// must never panic nor allocate beyond what the input's size allows, and
// whatever it accepts must survive Append → Get unchanged.
func FuzzDecodeProvenanceRecord(f *testing.F) {
	seeds := fuzzStore()
	for _, r := range append(edgeRecords()[:6], sampleRecord("g1")) {
		seq := seeds.Append(r)
		b, _ := seeds.encoded(seq)
		b = bytes.Clone(b) // the arena is released with seeds, before the fuzz inputs run
		f.Add(b)
		f.Add(b[:len(b)/2])               // torn
		f.Add(append([]byte{0xff}, b...)) // object ID length pushed out of range
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a hit count in the billions
	f.Add([]byte{0, 0, 0, 0, 2, 1, 0, 9})                   // a run longer than its list

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzStore()
		rec, err := decodeRecord(data, s.dict.snapshot())
		if err != nil {
			return
		}
		if n := len(rec.Hits) + len(rec.Combined) + len(rec.Reranked) + len(rec.Decisions); n > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", n, len(data))
		}
		seq := s.Append(rec)
		got, _ := s.Get(seq)
		if rec.Seq = seq; !sameRecord(got, rec) {
			t.Fatalf("accepted record changed in Append → Get:\n got %+v\nwant %+v", got, rec)
		}
	})
}
