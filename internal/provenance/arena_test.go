package provenance

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/binfmt"
)

// offHeapExpected reports whether binfmt.OffHeap maps on this run.
func offHeapExpected() bool { return runtime.GOOS == "linux" && os.Getenv(binfmt.NoMmapEnv) == "" }

// verifyRecord is shaped like the lineage of one claim verification: a
// hundred index hits over a pool of instances, the fused candidates, a
// rerank list and five decisions with explanations — about 3 KB encoded.
func verifyRecord(i int) Record {
	inst := func(k int) string { return fmt.Sprintf("table:t%04d", (i*37+k*13)%400) }
	r := Record{
		ObjectID:     fmt.Sprintf("claim-%06d", i),
		Query:        fmt.Sprintf("in the %d season standings, the points for team %d was %d", 1990+i%30, i%97, i),
		FinalVerdict: "Verified",
		Resolution:   "trust-weighted majority",
	}
	for k := 0; k < 100; k++ {
		r.Hits = append(r.Hits, RetrievalHit{Index: []string{"bm25", "vector"}[k/50], InstanceID: inst(k), Score: float64(k*i%1000) / 7, Rank: k % 50})
	}
	for k := 0; k < 80; k++ {
		r.Combined = append(r.Combined, inst(k))
	}
	for k := 0; k < 10; k++ {
		r.Reranked = append(r.Reranked, RerankEntry{InstanceID: inst(k), Score: 1 / float64(k+i+1), Rank: k})
	}
	for k := 0; k < 5; k++ {
		r.Decisions = append(r.Decisions, VerifierDecision{
			InstanceID: inst(k), SourceID: "synthetic-tables", Verifier: "pasta", Verdict: "Verified",
			Explanation: fmt.Sprintf("row %d of %s matches the claimed value %d under the stated operation; %s", k, inst(k), i, strings.Repeat("evidence ", 40)),
			SourceTrust: 0.8,
		})
	}
	return r
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestArenaOffHeap: with mappings available, the encoded records do not sit
// on the Go heap — appending them grows HeapAlloc by less than a tenth of
// what Stats reports the store holds — and Stats says they are off it.
func TestArenaOffHeap(t *testing.T) {
	if !offHeapExpected() {
		t.Skip("binfmt.OffHeap falls back to the heap on this run")
	}
	const n = 1500
	records := make([]Record, n)
	for i := range records {
		records[i] = verifyRecord(i)
	}
	s := NewStore()
	s.Append(verifyRecord(n)) // the dictionary and the pooled encoder
	before, st0 := heapAlloc(), s.Stats()
	for _, r := range records {
		s.Append(r)
	}
	grew, st := int64(heapAlloc())-int64(before), s.Stats()
	runtime.KeepAlive(records)
	added := st.Bytes - st0.Bytes
	if per := added / n; per < 2<<10 {
		t.Fatalf("records of %d bytes each; the test wants them about 3 KB", per)
	}
	if grew >= added/10 {
		t.Errorf("appending %d records (%d bytes in Stats) grew the heap by %d bytes, want under 10%%", n, added, grew)
	}
	if st.OffHeapBytes != st.Bytes-8*int64(st.Records)-8*int64(n+1)*5 {
		t.Errorf("stats = %+v: want every encoded byte off the heap", st)
	}
}

// TestArenaHeapFallbackAnswersAlike: a store whose segments fell back to
// the heap (NoMmapEnv) answers every read exactly as a mapped one does.
func TestArenaHeapFallbackAnswersAlike(t *testing.T) {
	const n = 600 // two segments
	build := func() *Store {
		s := NewStore()
		for i := 0; i < n; i++ {
			r := verifyRecord(i)
			r.ObjectID = fmt.Sprintf("claim-%03d", i%200) // three records an object
			s.Append(r)
		}
		return s
	}
	mapped := build()
	t.Setenv(binfmt.NoMmapEnv, "1")
	heap := build()
	if st := heap.Stats(); st.OffHeapBytes != 0 || st.Segments < 2 {
		t.Fatalf("heap store stats = %+v, want nothing off the heap over 2+ segments", st)
	}
	if offHeapExpected() && mapped.Stats().OffHeapBytes == 0 {
		t.Fatalf("mapped store stats = %+v, want its records off the heap", mapped.Stats())
	}
	for seq := 0; seq < n; seq++ {
		a, _ := mapped.Get(seq)
		b, _ := heap.Get(seq)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Get(%d) differs", seq)
		}
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("claim-%03d", i)
		if a, b := mapped.ByObject(id), heap.ByObject(id); len(a) != 3 || !reflect.DeepEqual(a, b) {
			t.Fatalf("ByObject(%s): %d and %d records", id, len(a), len(b))
		}
	}
	for k := 0; k <= 400; k += 7 {
		id := fmt.Sprintf("table:t%04d", k)
		if a, b := mapped.TaintedBy(id), heap.TaintedBy(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("TaintedBy(%s) = %v and %v", id, a, b)
		}
	}
	if !reflect.DeepEqual(mapped.EvidenceUsage(), heap.EvidenceUsage()) {
		t.Fatal("EvidenceUsage differs")
	}
	var a, b bytes.Buffer
	if err := mapped.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := heap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSON differs")
	}
	sa, sb := mapped.Stats(), heap.Stats()
	sa.OffHeapBytes = 0
	if sa != sb {
		t.Fatalf("stats %+v and %+v", sa, sb)
	}
}

// TestArenaDecodeUnderGCPressure decodes records while others are appended
// across segment seals, with the collector running almost continuously and
// whole stores becoming garbage as soon as their last read starts: a read
// that outlived its segment's mapping would fault or decode garbage here.
func TestArenaDecodeUnderGCPressure(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	const appenders, perAppender = 3, 150
	s := NewStore()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				want := verifyRecord(w*perAppender + i)
				seq := s.Append(want)
				want.Seq = seq
				if got, ok := s.Get(seq); !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("Get(%d) right after Append differs", seq)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { // whole stores, dropped while their last record decodes
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			want := verifyRecord(i)
			want.Seq = 0
			if got, _ := storeOf(want).Get(0); !reflect.DeepEqual(got, want) {
				t.Errorf("record of a dropped store differs")
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := s.Len(); n > 0 {
				if r, ok := s.Get(n / 2); !ok || r.Seq != n/2 || len(r.Decisions) != 5 {
					t.Errorf("Get(%d) = seq %d, %d decisions", n/2, r.Seq, len(r.Decisions))
					return
				}
				s.TaintedBy("table:t0000")
				if err := s.WriteJSON(&bytes.Buffer{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if st := s.Stats(); st.Records != appenders*perAppender || st.Segments < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// storeOf returns a new store holding r alone.
func storeOf(r Record) *Store {
	s := NewStore()
	s.Append(r)
	return s
}
