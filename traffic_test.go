package verifai

import (
	"fmt"
	"os"
	"path/filepath"
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
// 1.5 KB on this 120-table lake — move the live Go heap by less than 300
// bytes a verification, a tenth of what provenance grows, because the
// records sit in mapped arena segments. What still grows on the heap per
// record is its offset-table entry, its evidence postings and its
// object-ID chain head. Provenance itself must grow between 1 and 2 KB a
// verification: less means the records lost what the audit measures, more
// that the codec's compact forms (the derived fused list, delta-coded hit
// scores, explanations copying from the query) stopped working.
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
	if per := provGrew / measured; per < 1<<10 || per >= 2<<10 {
		t.Fatalf("lineage grew %d bytes a verification, want 1-2 KB (about 1.5 KB)", per)
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

// TestVerifyAllocations bounds the bytes a verify allocates, from
// runtime.MemStats.TotalAlloc, on the default lake seeded and
// checkpointed as `serve` does: after a warm-up, 250 novel claim verifies
// (table evidence, as claims_cold asks) allocate under 70 KB each, and
// 200 novel tuple verifies (tuple and text evidence, as tuples_cold asks)
// under 120 KB each. Candidates are reranked in place, borrowed from the
// sealed catalog, and only the k′ kept are copied; retrieval sizes its
// hits once. (Copying every candidate and analyzing it afresh, they
// allocated about 434 KB and 2.25 MB; growing the hits one append at a
// time, about 76-80 KB and 135 KB.) It runs without the race detector, which changes allocation.
func TestVerifyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	if testing.Short() {
		t.Skip("seeds the default lake; skipped in -short")
	}
	const warm, claimsN, tuplesN = 50, 250, 200
	lakeDir, _ := savedDefaultLake(t)
	sys := seedDefaultLake(t, lakeDir, filepath.Join(t.TempDir(), "data"))
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	claimTasks, err := corpus.ClaimTasks(warm + claimsN)
	if err != nil {
		t.Fatal(err)
	}
	tupleTasks, err := corpus.TupleTasks(warm + tuplesN)
	if err != nil {
		t.Fatal(err)
	}
	// perVerify returns the bytes each of verifies n calls to verify
	// allocate, after warm calls.
	perVerify := func(n int, verify func(i int)) uint64 {
		for i := range warm {
			verify(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+n; i++ {
			verify(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	claim := perVerify(claimsN, func(i int) {
		if _, err := sys.VerifyClaim(fmt.Sprintf("claim-%05d", i), claimTasks[i].Claim, KindTable); err != nil {
			t.Fatal(err)
		}
	})
	tuple := perVerify(tuplesN, func(i int) {
		tt := tupleTasks[i]
		tp := tt.Tuple
		if _, err := sys.VerifyImputedTuple(fmt.Sprintf("tuple-%05d", i), Tuple{Caption: tp.Caption, Columns: tp.Columns, Values: tp.Values},
			tt.MaskedAttr(), KindTuple, KindText); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocated per verify: claim %.1f KB, tuple %.1f KB", float64(claim)/1024, float64(tuple)/1024)
	if claim >= 70<<10 {
		t.Errorf("a claim verify allocates %d bytes, want under 70 KB", claim)
	}
	if tuple >= 120<<10 {
		t.Errorf("a tuple verify allocates %d bytes, want under 120 KB", tuple)
	}
}
