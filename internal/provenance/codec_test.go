package provenance

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	// fused is a small two-index hit list whose fusion the variants below
	// reorder, shorten, pad and repeat.
	fusedHits := []RetrievalHit{
		{Index: "bm25", InstanceID: "table:a", Score: 9.5, Rank: 0},
		{Index: "bm25", InstanceID: "table:b", Score: 7.25, Rank: 1},
		{Index: "bm25", InstanceID: "table:c", Score: 7.25, Rank: 2},
		{Index: "vector", InstanceID: "table:c", Score: 0.91, Rank: 0},
		{Index: "vector", InstanceID: "table:d", Score: 0.9, Rank: 1},
		{Index: "vector", InstanceID: "table:a", Score: 0.3, Rank: 2},
	}
	fusion := Combine(fusedHits) // c, a, b, d
	fused := func(name string, combined []string) Record {
		return Record{ObjectID: name, Hits: fusedHits, Combined: combined}
	}
	query := "In the 1962 masters tournament, the score for arnold palmer was 280."
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
		{
			ObjectID: "rising-scores",
			Hits: []RetrievalHit{
				{Index: "bm25", InstanceID: "a", Score: 1, Rank: 0},
				{Index: "bm25", InstanceID: "b", Score: 2, Rank: 1},
				{Index: "bm25", InstanceID: "c", Score: 1e300, Rank: 2},
				{Index: "bm25", InstanceID: "d", Score: -5, Rank: 3},
				{Index: "bm25", InstanceID: "e", Score: -4, Rank: 4},
			},
		},
		{
			ObjectID: "special-scores",
			Hits: []RetrievalHit{ // one run, so every one is a delta from the one before
				{Index: "vector", InstanceID: "a", Score: 0.5},
				{Index: "vector", InstanceID: "b", Score: math.Float64frombits(0x7ff8000000000001), Rank: 1}, // quiet NaN, payload 1
				{Index: "vector", InstanceID: "c", Score: math.Inf(1), Rank: 2},
				{Index: "vector", InstanceID: "d", Score: math.Float64frombits(0x000fffffffffffff), Rank: 3}, // largest subnormal
				{Index: "vector", InstanceID: "e", Score: math.Copysign(0, -1), Rank: 4},
				{Index: "vector", InstanceID: "f", Score: math.Float64frombits(0x800fffffffffffff), Rank: 5}, // negative subnormal
				{Index: "vector", InstanceID: "g", Score: math.Inf(-1), Rank: 6},
				{Index: "vector", InstanceID: "h", Score: math.Float64frombits(0xfff0000000000001), Rank: 7}, // negative signalling NaN
				{Index: "vector", InstanceID: "i", Score: 0, Rank: 8},
			},
			Combined: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}, // the fusion
		},
		fused("fused", fusion),
		fused("fused-reordered", []string{fusion[1], fusion[0], fusion[2], fusion[3]}),
		fused("fused-missing-one", fusion[:3]),
		fused("fused-plus-stranger", append(slices.Clone(fusion), "table:stranger")),
		fused("fused-stranger-in-place", []string{fusion[0], fusion[1], fusion[2], "table:stranger"}),
		fused("fused-duplicate", []string{fusion[0], fusion[1], fusion[2], fusion[2]}),
		fused("fused-duplicate-for-missing", []string{fusion[0], fusion[1], fusion[2], fusion[0]}),
		fused("fused-empty", []string{}),
		{
			ObjectID: "explanations",
			Query:    query,
			Decisions: []VerifierDecision{
				{InstanceID: "a", Explanation: ""},
				{InstanceID: "b", Explanation: "the score for arnold palmer was 280 in 1962 masters tournament"}, // copies from the query
				{InstanceID: "c", Explanation: "ab" + strings.Repeat("abc", 40) + "x"},                           // a copy overlapping itself
				{InstanceID: "d", Explanation: strings.Repeat("z", 3*maxCopy+5)},                                 // copies past the longest
				{InstanceID: "e", Explanation: "the score for arnold palmer was 280 in 1962 masters tournament"}, // copies an earlier explanation
				{InstanceID: "f", Explanation: "abc"},                                                            // shorter than a copy
			},
		},
		{
			// Its object ID is not UTF-8 either, so TestWriteJSONMatchesEncodingJSON
			// does not ask a JSON round trip of it to be a fixed point.
			ObjectID: "explanations-not-utf-8\xff",
			Query:    query,
			Decisions: []VerifierDecision{
				{InstanceID: "a", Explanation: "\xff\xfe" + query + "\x80\xff" + query[:7]}, // invalid UTF-8 around copies
			},
		},
		{
			ObjectID:  "explanation-no-query",
			Decisions: []VerifierDecision{{InstanceID: "a", Explanation: "aaaaaaaaaaaaaaaaaaaaaaaaaaaa"}},
		},
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

// sameOutcome reports whether o is r's outcome, scores compared by bits.
func sameOutcome(o Outcome, r Record) bool {
	return sameRecord(Record{FinalVerdict: o.FinalVerdict, Reranked: o.Reranked, Decisions: o.Decisions},
		Record{FinalVerdict: r.FinalVerdict, Reranked: r.Reranked, Decisions: r.Decisions})
}

// TestCodecRoundTrip: every edge record reads back equal to itself, and its
// outcome read equal to its outcome, right after Append and again once its
// segment is sealed and a few more have filled up behind it. (Records captured from real claim, tuple and pinned
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
			if got, ok := s.Outcome(seq); !ok || !sameOutcome(got, want) {
				t.Fatalf("outcome %d (%q) after %d segments:\n got %+v\nwant %+v", seq, want.ObjectID, s.Stats().Segments, got, want)
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

// encodedSize returns the bytes r takes in a store of its own.
func encodedSize(r Record) int {
	s := NewStore()
	b, _ := s.encoded(s.Append(r))
	return len(b)
}

// TestCodecTakesCompactForms: the round trips above pass whether or not the
// encoder uses its compact forms, so this checks that it does — a fused list
// that is the hits' fusion costs what a nil one does, a run's later scores
// cost less than their eight raw bytes, and an explanation that repeats the
// query costs a fraction of its length.
func TestCodecTakesCompactForms(t *testing.T) {
	hits := []RetrievalHit{
		{Index: "bm25", InstanceID: "table:a", Score: 12.75, Rank: 0},
		{Index: "bm25", InstanceID: "table:b", Score: 11.5, Rank: 1},
		{Index: "vector", InstanceID: "table:b", Score: 0.93, Rank: 0},
		{Index: "vector", InstanceID: "table:c", Score: 0.92, Rank: 1},
	}
	bare := Record{ObjectID: "o", Hits: hits}
	withFusion := Record{ObjectID: "o", Hits: hits, Combined: Combine(hits)}
	if a, b := encodedSize(bare), encodedSize(withFusion); a != b {
		t.Errorf("the fused list costs %d bytes, want none beyond a nil list's", b-a)
	}
	reordered := withFusion
	reordered.Combined = slices.Clone(withFusion.Combined)
	slices.Reverse(reordered.Combined)
	if encodedSize(reordered) <= encodedSize(withFusion) {
		t.Error("a fused list that is not the fusion costs no more than the fusion")
	}

	oneRun := Record{ObjectID: "o"}
	for i := range 50 {
		// Falling slowly, every other one tied with the one before, as
		// BM25 scores do down a long list.
		oneRun.Hits = append(oneRun.Hits, RetrievalHit{Index: "bm25", InstanceID: "i", Score: 20 - float64(i/2)*0.01, Rank: i})
	}
	// Per hit: an instance byte and a delta, one byte for a tie; per run:
	// the index, rank, length and first score.
	if size, raw := encodedSize(oneRun), 50*(1+8); size >= raw*3/4 {
		t.Errorf("a run of 50 slowly falling scores takes %d bytes, with raw scores %d", size, raw)
	}

	query := "In the 1962 masters tournament, the score for arnold palmer was 280."
	quoting := Record{ObjectID: "o", Query: query, Decisions: []VerifierDecision{{
		InstanceID:  "table:a",
		Explanation: "row 3 says " + query[7:] + " and " + query[7:],
	}}}
	plain := Record{ObjectID: "o", Query: query, Decisions: []VerifierDecision{{InstanceID: "table:a"}}}
	if cost, n := encodedSize(quoting)-encodedSize(plain), len(quoting.Decisions[0].Explanation); cost > n/4 {
		t.Errorf("an explanation of %d bytes quoting the query costs %d", n, cost)
	}
}

// TestFusionCheckAgreesWithCombine: over random hit lists — instances in
// both families or one, repeated within a family, tied reciprocal ranks,
// ranks out of order or negative — the encoder takes the fused-list marker
// for Combine's own list, and every list it is given, the fusion or a near
// miss of it, reads back as given.
func TestFusionCheckAgreesWithCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	for i := range 500 {
		var hits []RetrievalHit
		for _, index := range []string{"bm25", "vector"} {
			rank := rng.Intn(3) - 1
			for range rng.Intn(30) {
				hits = append(hits, RetrievalHit{Index: index, InstanceID: fmt.Sprintf("table:%d", rng.Intn(25)), Score: rng.Float64(), Rank: rank})
				rank += rng.Intn(3) // sometimes the same rank again
			}
		}
		fusion := Combine(hits)
		if len(fusion) == 0 {
			continue
		}
		bare := Record{ObjectID: fmt.Sprint(i), Hits: hits}
		withFusion := Record{ObjectID: bare.ObjectID, Hits: hits, Combined: fusion}
		if a, b := encodedSize(bare), encodedSize(withFusion); a != b {
			t.Fatalf("record %d: Combine's list costs %d bytes", i, b-a)
		}
		nearMiss := slices.Clone(fusion)
		switch j := rng.Intn(len(nearMiss)); {
		case len(nearMiss) > 1 && rng.Intn(2) == 0:
			k := (j + 1) % len(nearMiss)
			nearMiss[j], nearMiss[k] = nearMiss[k], nearMiss[j]
		default:
			nearMiss[j] = nearMiss[rng.Intn(len(nearMiss))]
		}
		for _, combined := range [][]string{fusion, nearMiss} {
			want := Record{ObjectID: bare.ObjectID, Hits: hits, Combined: combined}
			want.Seq = s.Append(want)
			if got, _ := s.Get(want.Seq); !sameRecord(got, want) {
				t.Fatalf("record %d: fused list %v read back as %v", i, combined, got.Combined)
			}
		}
	}
}

// textRecord encodes by hand a record whose one decision's explanation is
// declared total bytes long in all and length long itself, coded as tokens,
// over the query "abcd".
func textRecord(total, length uint64, tokens ...uint64) []byte {
	b := []byte{0, 4, 'a', 'b', 'c', 'd', 0, 0, 0, 2} // object, query, verdict, resolution, no rerank, one decision
	b = binary.AppendUvarint(b, total)
	b = append(b, 1, 0, 0, 0, 0, 0, 0, 0) // instance 0 with a float32 trust; source, verifier, verdict 0
	b = binary.AppendUvarint(b, length)
	for _, t := range tokens {
		b = binary.AppendUvarint(b, t)
	}
	return append(b, 0, 0) // no hits, no fused list
}

// TestDecodeRejectsBadText: the explanation decoder refuses a copy from
// outside the window, one running past its explanation, a literal of no
// bytes, a total length more than the bytes left could code, and lengths
// that disagree with their total; a fused list over no hits is refused too.
func TestDecodeRejectsBadText(t *testing.T) {
	dict := fuzzStore().dict.snapshot()
	copyOf := func(n int) uint64 { return uint64(n-minCopy)<<1 | 1 }
	// "abcd" copied from the query, literal "xy", then "y" five times,
	// a copy overlapping itself.
	if r, err := decodeRecord(textRecord(11, 11, copyOf(4), 4, 2<<1, 'x', 'y', copyOf(5), 1), dict); err != nil ||
		r.Decisions[0].Explanation != "abcdxyyyyyy" {
		t.Fatalf("a well-formed explanation decodes to %+v, %v", r.Decisions, err)
	}
	noHits := textRecord(4, 4, copyOf(4), 4)
	noHits[len(noHits)-1] = 1
	bad := map[string][]byte{
		"copy from before the window": textRecord(4, 4, copyOf(4), 5),
		"copy from distance 0":        textRecord(4, 4, copyOf(4), 0),
		"copy past the length":        textRecord(3, 3, copyOf(4), 4),
		"copy past the longest":       textRecord(maxCopy+1, maxCopy+1, copyOf(maxCopy+1), 1),
		"literal of no bytes":         textRecord(4, 4, 0, copyOf(4), 4),
		"literal past the length":     textRecord(1, 1, 2<<1, 'x', 'y'),
		"total past the cap":          textRecord(maxExpansion*200, maxExpansion*200, copyOf(4), 4),
		"length past the total":       textRecord(3, 4, copyOf(4), 4),
		"total past the lengths":      textRecord(5, 4, copyOf(4), 4),
		"fused list of no hits":       noHits,
	}
	for name, b := range bad {
		if _, err := decodeRecord(b, dict); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: error %v, want a corrupt record", name, err)
		}
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

// compactRecord is a record over fuzzDictionary's strings that takes the
// codec's compact forms: its fused list is the hits' fusion, its scores
// fall within runs and its explanations copy from the query and each other.
func compactRecord() Record {
	hits := []RetrievalHit{
		{Index: "bm25", InstanceID: "table:t1", Score: 3.5, Rank: 0},
		{Index: "bm25", InstanceID: "tuple:t1#0", Score: 3.25, Rank: 1},
		{Index: "vector", InstanceID: "tuple:t1#0", Score: 0.9, Rank: 0},
		{Index: "vector", InstanceID: "text:d1", Score: 0.85, Rank: 1},
	}
	query := "in the 1962 masters, the score for arnold palmer was 280"
	decision := func(id, explanation string) VerifierDecision {
		return VerifierDecision{InstanceID: id, SourceID: "s1", Verifier: "chatgpt-sim", Verdict: "Verified", Explanation: explanation, SourceTrust: 0.8}
	}
	return Record{
		ObjectID: "compact", Query: query, Hits: hits, Combined: Combine(hits),
		Reranked:     []RerankEntry{{InstanceID: "tuple:t1#0", Score: 0.9}},
		Decisions:    []VerifierDecision{decision("tuple:t1#0", "row 2: the score for arnold palmer was 280"), decision("table:t1", "row 2: the score for arnold palmer was 280 again")},
		FinalVerdict: "Verified", Resolution: "trust-weighted majority",
	}
}

// FuzzDecodeProvenanceRecord feeds arbitrary bytes to the record decoder and
// to the outcome read. Neither may panic nor allocate beyond what the
// input's size allows (explanations included: copies are bounded, so the
// text is at most maxExpansion times the input); what the full decode
// accepts the outcome read accepts too and agrees with; and whatever the
// full decode accepts must survive Append → Get unchanged.
func FuzzDecodeProvenanceRecord(f *testing.F) {
	seeds := fuzzStore()
	for _, r := range append(edgeRecords()[:6], sampleRecord("g1"), compactRecord()) {
		seq := seeds.Append(r)
		b, _ := seeds.encoded(seq)
		b = bytes.Clone(b) // the arena is released with seeds, before the fuzz inputs run
		f.Add(b)
		f.Add(b[:len(b)/2])               // torn
		f.Add(append([]byte{0xff}, b...)) // object ID length pushed out of range
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a hit count in the billions
	f.Add([]byte{0, 0, 0, 0, 2, 0, 9})                            // a rerank run longer than its list

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzStore()
		rec, err := decodeRecord(data, s.dict.snapshot())
		out, outErr := decodeOutcome(data, s.dict.snapshot())
		if n := len(out.Reranked) + len(out.Decisions); n > len(data) {
			t.Fatalf("%d outcome entries read from %d bytes", n, len(data))
		}
		text := 0
		for _, dec := range out.Decisions {
			text += len(dec.Explanation)
		}
		if text > maxExpansion*len(data) {
			t.Fatalf("%d bytes of explanations read from %d bytes", text, len(data))
		}
		if err != nil {
			return
		}
		if outErr != nil || !sameOutcome(out, rec) {
			t.Fatalf("outcome read (error %v) disagrees with the full decode:\n got %+v\nwant %+v", outErr, out, rec)
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
