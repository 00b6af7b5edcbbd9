package verifai

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/obs"
	"repro/internal/textutil"
	"repro/internal/wal"
)

// Deterministic checks on the write path's costs: each compares two arms
// measured in the same process, in bytes, allocations or ordering rather
// than wall-clock time, so they hold on any machine.

// TestWALBinaryEncodingSize holds the binary record codec to at most 0.7x
// the bytes of the JSON one over the same mutation stream.
func TestWALBinaryEncodingSize(t *testing.T) {
	recs := walEncodeRecords(t)
	size := func(f wal.Format) int {
		var buf bytes.Buffer
		for _, rec := range recs {
			if err := wal.EncodeFrameFormat(&buf, rec, f); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Len()
	}
	binBytes, jsonBytes := size(wal.FormatBinary), size(wal.FormatJSON)
	if ratio := float64(binBytes) / float64(jsonBytes); ratio > 0.7 {
		t.Errorf("binary frames %d bytes, JSON %d over %d records: ratio %.3f, want <= 0.7", binBytes, jsonBytes, len(recs), ratio)
	}
}

// TestObsAllocationOverhead: arming every lake and indexer metric costs an
// ingested document at most two allocations over a bare lake. Both arms
// ingest the same documents into an empty lake, with the stem memo warmed
// beforehand, so neither pays for growth or first sightings the other
// does not.
func TestObsAllocationOverhead(t *testing.T) {
	const runs = 200
	docs := func() []*doc.Document {
		out := make([]*doc.Document, runs+1) // AllocsPerRun adds a warm-up call
		for i := range out {
			out[i] = benchDoc(int64(i))
		}
		return out
	}
	for _, d := range docs() {
		new(textutil.Dict).AppendTerms(nil, d.SerializeForIndex())
	}
	allocs := func(instrumented bool) float64 {
		lake := datalake.New()
		defer lake.Close()
		ix, err := core.BuildIndexer(lake, core.DefaultIndexerConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if instrumented {
			reg := obs.NewRegistry()
			lake.SetMetrics(reg)
			ix.SetMetrics(reg)
		}
		ds, i := docs(), 0
		return testing.AllocsPerRun(runs, func() {
			if err := lake.AddDocument(ds[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	bare, instrumented := allocs(false), allocs(true)
	t.Logf("allocations per AddDocument: bare %.0f, instrumented %.0f", bare, instrumented)
	if instrumented > bare+2 {
		t.Errorf("an instrumented AddDocument makes %.0f allocations, a bare one %.0f: want at most 2 more", instrumented, bare)
	}
}

// TestPrepareRunsOutsideWriteLock: two concurrent ingests whose Prepare
// each waits for the other to enter can only both finish if prepare runs
// outside the lake's write lock.
func TestPrepareRunsOutsideWriteLock(t *testing.T) {
	lake := datalake.New()
	defer lake.Close()
	var entered sync.WaitGroup
	entered.Add(2)
	both := make(chan struct{})
	go func() {
		entered.Wait()
		close(both)
	}()
	unsubscribe, err := lake.Subscribe(nil, datalake.Subscriber{Prepare: func(datalake.Event) (any, error) {
		entered.Done()
		select {
		case <-both:
			return nil, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("the other ingest never entered prepare: prepares are serialized")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()

	errs := make(chan error, 2)
	for i := int64(0); i < 2; i++ {
		go func() { errs <- lake.AddDocument(benchDoc(i)) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
