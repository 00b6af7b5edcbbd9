package verifai

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/workload"
)

// liveHeap returns /gc/heap/live:bytes after a full collection: the heap
// the collector found reachable.
func liveHeap() int64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// TestTrafficGrowthStaysOffHeap is the traffic-growth audit for lineage:
// once the result and query caches are full, 2,000 more distinct
// verifications — each a cache miss that appends a lineage record of about
// 3 KB — move the live Go heap by less than 300 bytes a verification, a
// tenth of what provenance grows, because the records sit in mapped arena
// segments. What still grows on the heap per record is its offset-table
// entry, its evidence postings and its object-ID chain head.
func TestTrafficGrowthStaysOffHeap(t *testing.T) {
	if runtime.GOOS != "linux" || os.Getenv(binfmt.NoMmapEnv) != "" {
		t.Skip("the provenance arena is on the heap on this run")
	}
	const cacheSize, measured = 128, 2000
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 120, 20
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExactOptions(1)
	opts.Pipeline.ResultCache = cacheSize
	opts.Indexer.QueryCacheSize = cacheSize
	sys, err := NewSystem(corpus.Lake, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tasks, err := corpus.ClaimTasks(4 * cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	verify := func(count int) {
		t.Helper()
		for i := 0; i < count; i, n = i+1, n+1 {
			if _, err := sys.VerifyClaim(fmt.Sprintf("claim-%05d", n), tasks[n%len(tasks)].Claim, KindTable); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm-up: every claim once, so both caches are full and every query
	// token has its vector.
	verify(len(tasks))
	heap0, prov0 := liveHeap(), sys.Provenance().Stats()
	verify(measured)
	heap1, prov1 := liveHeap(), sys.Provenance().Stats()

	if got := prov1.Records - prov0.Records; got != measured {
		t.Fatalf("%d lineage records for %d distinct verifications", got, measured)
	}
	provGrew, heapGrew := prov1.Bytes-prov0.Bytes, heap1-heap0
	t.Logf("provenance grew %d bytes (%d a verify, %d off the heap); live heap %+d bytes (%+d a verify)",
		provGrew, provGrew/measured, prov1.OffHeapBytes-prov0.OffHeapBytes, heapGrew, heapGrew/measured)
	if provGrew/measured < 2<<10 {
		t.Fatalf("lineage grew %d bytes a verification, want about 3 KB", provGrew/measured)
	}
	if heapGrew > 300*measured || heapGrew*10 > provGrew {
		t.Errorf("live heap grew %d bytes over %d verifications, provenance %d: want under 300 a verification and a tenth of provenance", heapGrew, measured, provGrew)
	}
}

// TestVerifyRetainsLittleHeap is the traffic-growth audit for the result
// cache: on a default-lake system, 2,000 verifies of novel claims — each a
// miss that leaves a cache entry and a lineage record — grow the live Go
// heap, measured after two collections, by less than 1,000 bytes a verify.
// An entry is its key and a few stamps; the Report it stands for is
// rebuilt from lineage on a hit, and lineage sits in mapped arena segments.
// It runs without the race detector, which would make it take minutes.
func TestVerifyRetainsLittleHeap(t *testing.T) {
	if runtime.GOOS != "linux" || os.Getenv(binfmt.NoMmapEnv) != "" {
		t.Skip("the provenance arena is on the heap on this run")
	}
	if raceEnabled {
		t.Skip("the race detector slows 2,300 verifies of the default lake to minutes")
	}
	const warm, measured = 300, 2000
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(corpus.Lake, ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tasks, err := corpus.ClaimTasks(warm + measured)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(from, to int) int64 {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := sys.VerifyClaim(fmt.Sprintf("novel-%05d", i), tasks[i].Claim, KindTable); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		return liveHeap()
	}
	// Warm-up: past the query cache's capacity, so what grows below is
	// what each further verify leaves behind.
	heap0 := verify(0, warm)
	heap1 := verify(warm, warm+measured)

	st := sys.Stats()
	if st.ResultCacheSize != warm+measured {
		t.Fatalf("%d result-cache entries after %d novel verifies", st.ResultCacheSize, warm+measured)
	}
	grew := heap1 - heap0
	t.Logf("live heap %+d bytes over %d verifies (%+d a verify); result cache %d bytes in %d entries",
		grew, measured, grew/measured, st.ResultCacheBytes, st.ResultCacheSize)
	if grew >= 1000*measured {
		t.Errorf("live heap grew %d bytes over %d novel verifies, %d a verify: want under 1,000", grew, measured, grew/measured)
	}
}
