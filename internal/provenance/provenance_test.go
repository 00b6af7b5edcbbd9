package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func sampleRecord(obj string) Record {
	return Record{
		ObjectID: obj,
		Query:    "some query",
		Hits: []RetrievalHit{
			{Index: "bm25", InstanceID: "tuple:t1#0", Score: 3.2, Rank: 0},
			{Index: "vector", InstanceID: "text:d1", Score: 0.8, Rank: 0},
		},
		Combined: []string{"tuple:t1#0", "text:d1"},
		Reranked: []RerankEntry{{InstanceID: "tuple:t1#0", Score: 0.9, Rank: 0}},
		Decisions: []VerifierDecision{
			{InstanceID: "tuple:t1#0", SourceID: "s1", Verifier: "chatgpt-sim", Verdict: "Verified", SourceTrust: 0.8},
		},
		FinalVerdict: "Verified",
		Resolution:   "trust-weighted majority",
	}
}

func TestAppendAndGet(t *testing.T) {
	s := NewStore()
	seq := s.Append(sampleRecord("g1"))
	if seq != 0 {
		t.Errorf("first seq = %d", seq)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	r, ok := s.Get(0)
	if !ok || r.ObjectID != "g1" || r.Seq != 0 {
		t.Errorf("Get(0) = %+v, %v", r, ok)
	}
	if _, ok := s.Get(5); ok {
		t.Error("Get out of range ok")
	}
	if _, ok := s.Get(-1); ok {
		t.Error("Get(-1) ok")
	}
}

func TestByObject(t *testing.T) {
	s := NewStore()
	s.Append(sampleRecord("g1"))
	s.Append(sampleRecord("g2"))
	s.Append(sampleRecord("g1"))
	recs := s.ByObject("g1")
	if len(recs) != 2 || recs[0].Seq != 0 || recs[1].Seq != 2 {
		t.Errorf("ByObject = %+v", recs)
	}
	if got := s.ByObject("ghost"); len(got) != 0 {
		t.Errorf("ByObject(ghost) = %v", got)
	}
}

func TestTaintedBy(t *testing.T) {
	s := NewStore()
	s.Append(sampleRecord("g1"))
	s.Append(sampleRecord("g2"))
	tainted := s.TaintedBy("tuple:t1#0")
	if !reflect.DeepEqual(tainted, []string{"g1", "g2"}) {
		t.Errorf("TaintedBy = %v", tainted)
	}
	if got := s.TaintedBy("text:unused"); len(got) != 0 {
		t.Errorf("TaintedBy(unused) = %v", got)
	}
}

func TestJSONRoundtrip(t *testing.T) {
	s := NewStore()
	s.Append(sampleRecord("g1"))
	s.Append(sampleRecord("g2"))
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded Len = %d", loaded.Len())
	}
	a, _ := s.Get(1)
	b, _ := loaded.Get(1)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("roundtrip mismatch:\n%+v\n%+v", a, b)
	}
}

func TestReadJSONMalformed(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Append(sampleRecord("g"))
				s.ByObject("g")
				s.TaintedBy("tuple:t1#0")
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len after concurrent appends = %d", s.Len())
	}
	// Sequence numbers are unique and dense.
	seen := make(map[int]bool)
	for i := 0; i < s.Len(); i++ {
		r, ok := s.Get(i)
		if !ok || r.Seq != i || seen[r.Seq] {
			t.Fatalf("bad seq at %d: %+v", i, r)
		}
		seen[r.Seq] = true
	}
}

// scanStore is the slice of structs this package used to keep, with the
// scans it answered from: the reference the segmented store is pinned to.
type scanStore struct{ records []Record }

func (s *scanStore) append(r Record) {
	r.Seq = len(s.records)
	s.records = append(s.records, r)
}

func (s *scanStore) byObject(objectID string) []Record {
	out := []Record{}
	for _, r := range s.records {
		if r.ObjectID == objectID {
			out = append(out, r)
		}
	}
	return out
}

func (s *scanStore) taintedBy(instanceID string) []string {
	seen := make(map[string]struct{})
	for _, r := range s.records {
		for _, d := range r.Decisions {
			if d.InstanceID == instanceID {
				seen[r.ObjectID] = struct{}{}
				break
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *scanStore) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.records)
}

// TestReturnedRecordsArePrivate is the aliasing regression: neither the
// slices a caller appended nor the ones it got back are the store's.
func TestReturnedRecordsArePrivate(t *testing.T) {
	scribble := func(r *Record) {
		r.Hits[0], r.Hits[1] = r.Hits[1], r.Hits[0]
		r.Hits[0].InstanceID = "scribbled"
		r.Combined[0] = "scribbled"
		r.Combined = r.Combined[:1]
		r.Reranked[0].Score = -1
		r.Decisions[0].Verdict = "scribbled"
	}
	want := sampleRecord("g1")
	s := NewStore()
	appended := sampleRecord("g1")
	s.Append(appended)
	scribble(&appended)
	got, _ := s.Get(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating an appended record changed the store:\n%+v", got)
	}
	scribble(&got)
	byObj := s.ByObject("g1")
	if len(byObj) != 1 || !reflect.DeepEqual(byObj[0], want) {
		t.Fatalf("mutating a Get result changed the store:\n%+v", byObj)
	}
	scribble(&byObj[0])
	if got, _ = s.Get(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating a ByObject result changed the store:\n%+v", got)
	}
}

// TestIndexesMatchScan pins ByObject and TaintedBy, which answer from
// chains built at Append, to a scan over every record.
func TestIndexesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, ref := NewStore(), &scanStore{}
	for i := 0; i < 2000; i++ {
		r := sampleRecord(fmt.Sprintf("obj-%03d", rng.Intn(300)))
		r.Decisions = nil
		for n := rng.Intn(4); n > 0; n-- {
			// Few enough instances that one is sometimes decided twice in a
			// record, which taints it once.
			r.Decisions = append(r.Decisions, VerifierDecision{InstanceID: fmt.Sprintf("tuple:t%d#0", rng.Intn(40)), Verdict: "Verified"})
		}
		s.Append(r)
		ref.append(r)
	}
	for i := 0; i <= 40; i++ { // 40 was never used
		id := fmt.Sprintf("tuple:t%d#0", i)
		if got, want := s.TaintedBy(id), ref.taintedBy(id); !reflect.DeepEqual(got, want) {
			t.Errorf("TaintedBy(%s) = %v\nscan says %v", id, got, want)
		}
	}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("obj-%03d", i)
		if got, want := s.ByObject(id), ref.byObject(id); !reflect.DeepEqual(got, want) {
			t.Errorf("ByObject(%s): %d records, scan says %d", id, len(got), len(want))
		}
	}
}

// TestWriteJSONMatchesEncodingJSON: streaming record by record writes the
// bytes encoding/json writes for the whole slice, and they survive
// WriteJSON → ReadJSON → WriteJSON.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	var edges, notUTF8 []Record
	for _, r := range edgeRecords() {
		if _, err := json.Marshal(r); err != nil {
			continue // encoding/json refuses NaN and Inf scores
		}
		if utf8.ValidString(r.ObjectID) {
			edges = append(edges, r)
		} else {
			notUTF8 = append(notUTF8, r)
		}
	}
	for _, tc := range []struct {
		name    string
		records []Record
		// encoding/json writes an invalid byte as an escaped U+FFFD and a
		// U+FFFD it read back raw, so such a dump is not a fixed point.
		fixedPoint bool
	}{
		{"empty", nil, true},
		{"one", []Record{sampleRecord("g1")}, true},
		{"edges", edges, true},
		{"not UTF-8", notUTF8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := NewStore(), &scanStore{}
			for _, r := range tc.records {
				s.Append(r)
				ref.append(r)
			}
			var got, want bytes.Buffer
			if err := s.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref.writeJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteJSON differs from encoding/json:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
			}
			loaded, err := ReadJSON(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := loaded.WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			if tc.fixedPoint && !bytes.Equal(again.Bytes(), got.Bytes()) {
				t.Fatal("WriteJSON → ReadJSON → WriteJSON changed the bytes")
			}
		})
	}
}

// gatedWriter blocks its first Write until released.
type gatedWriter struct {
	bytes.Buffer
	started, release chan struct{}
	once             sync.Once
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.Buffer.Write(p)
}

// TestWriteJSONDoesNotBlockAppend: a stalled writer must not hold the
// store's lock, and the dump is the snapshot taken when it began.
func TestWriteJSONDoesNotBlockAppend(t *testing.T) {
	s := NewStore()
	s.Append(sampleRecord("before"))
	w := &gatedWriter{started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- s.WriteJSON(w) }()
	<-w.started
	appended := make(chan struct{})
	go func() {
		s.Append(sampleRecord("during"))
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind a stalled WriteJSON")
	}
	close(w.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&w.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 || len(loaded.ByObject("before")) != 1 {
		t.Fatalf("dump holds %d records, want the one appended before it began", loaded.Len())
	}
}

// TestConcurrentUseAcrossSeals runs every entry point at once while
// appenders push the store through a few dozen segment seals.
func TestConcurrentUseAcrossSeals(t *testing.T) {
	const appenders, perAppender = 4, 60
	// Eleven of these fill a segment.
	padding := strings.Repeat("q", segmentSize/12)
	record := func(w, i int) Record {
		r := sampleRecord(fmt.Sprintf("w%d", w))
		r.Query = fmt.Sprintf("%d/%d %s", w, i, padding)
		return r
	}
	s := NewStore()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < appenders; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perAppender; i++ {
				seq := s.Append(record(w, i))
				if got, ok := s.Get(seq); !ok || got.Query != record(w, i).Query {
					t.Errorf("Get(%d) right after Append: ok=%v", seq, ok)
				}
			}
		}(w)
	}
	for _, read := range []func(){
		func() {
			if n := s.Len(); n > 0 {
				if r, ok := s.Get(n - 1); !ok || r.Seq != n-1 {
					t.Errorf("Get(Len-1) = seq %d, %v", r.Seq, ok)
				}
			}
		},
		func() {
			for i, r := range s.ByObject("w1") {
				if r.ObjectID != "w1" || !strings.HasPrefix(r.Query, fmt.Sprintf("1/%d ", i)) {
					t.Errorf("ByObject(w1)[%d] = %s %.8s", i, r.ObjectID, r.Query)
				}
			}
		},
		func() { s.TaintedBy("tuple:t1#0"); s.Stats() },
		func() {
			if err := s.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		},
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.Records != appenders*perAppender || st.Segments < 20 {
		t.Fatalf("stats = %+v, want %d records over 20+ segments", st, appenders*perAppender)
	}
	if got := s.TaintedBy("tuple:t1#0"); !reflect.DeepEqual(got, []string{"w0", "w1", "w2", "w3"}) {
		t.Errorf("TaintedBy = %v", got)
	}
}

// ReadJSON loads records previously written by WriteJSON into a new store.
func ReadJSON(r io.Reader) (*Store, error) {
	var records []Record
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return nil, fmt.Errorf("provenance: decode records: %w", err)
	}
	s := NewStore()
	for _, rec := range records {
		s.Append(rec)
	}
	return s, nil
}

func TestCombineRRF(t *testing.T) {
	hits := []RetrievalHit{
		{Index: "bm25", InstanceID: "a", Rank: 0},
		{Index: "bm25", InstanceID: "b", Rank: 1},
		{Index: "vector", InstanceID: "b", Rank: 0},
		{Index: "vector", InstanceID: "c", Rank: 1},
	}
	got := Combine(hits)
	// b appears in both lists (1/61 + 1/60) and must beat a (1/60) and c (1/61).
	if len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Errorf("Combine = %v", got)
	}
	if Combine(nil) != nil {
		t.Error("Combine(nil) != nil")
	}
}
