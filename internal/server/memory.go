package server

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/binfmt"
	"repro/internal/datalake"
)

// goMemoryMetrics are the runtime/metrics samples the memory ledger reads,
// in the order memoryLedger indexes them.
var goMemoryMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
	"/memory/classes/heap/stacks:bytes",
	"/memory/classes/os-stacks:bytes",
	"/memory/classes/profiling/buckets:bytes",
	"/memory/classes/total:bytes",
}

// residentClasses are the ledger rows that are resident memory; "accounted"
// is their sum. All but file_other are measured apart from /proc, so on
// Linux "accounted" coming within a few percent of "vm_rss" says the
// anonymous memory is explained:
//
//   - go_heap_live: heap objects the last collection marked live;
//   - go_heap_dead: heap objects allocated or died since, not yet swept;
//   - go_heap_unused: free slots inside in-use heap spans (fragmentation);
//   - go_heap_idle: free heap spans not yet returned to the OS;
//   - go_stacks: goroutine and OS thread stacks;
//   - go_runtime_other: the runtime's own metadata and the rest of what it
//     mapped, less go_profiling_buckets;
//   - offheap_provenance: lineage records in mapped arena segments and
//     the slot table of their dictionary;
//   - offheap_catalog: the catalog's sealed segments (the tables,
//     documents and triples up to the lake's last seal) in anonymous
//     mappings;
//   - token_table: the embedder's token vectors in anonymous mappings (0
//     when they fell back to the heap, where go_heap_live holds them);
//   - offheap_indexes: the other containers in anonymous mappings, sealed
//     index segments, built by seals or inflated from the checkpoint's
//     BM25 files;
//   - file_other: the file-backed resident pages (rss_file), mostly the
//     executable's text.
//
// The other rows are context: go_heap_goal (the heap size that triggers
// the next collection), go_heap_released (heap returned to the OS, not
// resident), go_profiling_buckets (the profiler's stack buckets: a sparse
// hash table, mapped but barely touched), result_cache (the verify-result
// cache's entries, keys included, a part of go_heap_live), tail (what has
// not been sealed yet: the lake's Go tables, documents and triples since
// its last seal and the indexes' deltas, as their owners estimate them,
// also a part of go_heap_live), and vm_rss, rss_anon and rss_file from
// /proc/self/status.
var residentClasses = []string{
	"go_heap_live", "go_heap_dead", "go_heap_unused", "go_heap_idle", "go_stacks", "go_runtime_other",
	"offheap_provenance", "offheap_catalog", "offheap_indexes", "token_table", "file_other",
}

// memoryLedger is the "memory" block of /v1/stats and the classes of
// verifai_memory_bytes: where the process's memory sits, in bytes.
func (s *Server) memoryLedger() map[string]int64 {
	samples := make([]metrics.Sample, len(goMemoryMetrics))
	for i, name := range goMemoryMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	v := make([]int64, len(samples))
	for i, sm := range samples {
		if sm.Value.Kind() == metrics.KindUint64 {
			v[i] = int64(sm.Value.Uint64())
		}
	}
	live, goal, objects, unused, free, released, stacks, osStacks, profiling, total := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
	ix := s.pipeline.Indexer()
	indexes := ix.IndexStats().Families
	catalog := datalake.SegmentBytes()
	m := map[string]int64{
		"go_heap_live":         live,
		"go_heap_dead":         max(objects-live, 0),
		"go_heap_unused":       unused,
		"go_heap_idle":         free,
		"go_stacks":            stacks + osStacks,
		"go_runtime_other":     total - objects - unused - free - released - stacks - osStacks - profiling,
		"go_heap_goal":         goal,
		"go_heap_released":     released,
		"go_profiling_buckets": profiling,
		"offheap_catalog":      catalog,
		"offheap_indexes":      max(binfmt.BuiltBytes()-catalog, 0),
		"token_table":          ix.Embedder().OffHeapBytes(),
		"result_cache":         s.pipeline.Stats().ResultCacheBytes,
		"tail":                 s.pipeline.Lake().TailBytes() + indexes["bm25"].TailBytes + indexes["vector"].TailBytes,
	}
	if store := s.pipeline.Provenance(); store != nil {
		m["offheap_provenance"] = store.Stats().OffHeapBytes
	}
	if rss, ok := procStatusBytes("VmRSS", "RssAnon", "RssFile"); ok {
		m["vm_rss"], m["rss_anon"], m["rss_file"] = rss[0], rss[1], rss[2]
		m["file_other"] = rss[2]
	}
	var accounted int64
	for _, class := range residentClasses {
		accounted += m[class]
	}
	m["accounted"] = accounted
	return m
}

// procStatusBytes reads the named kB fields of /proc/self/status, in
// bytes; ok is false where there is no such file or it lacks one of them.
func procStatusBytes(fields ...string) (_ []int64, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, false
	}
	out := make([]int64, len(fields))
	for i, field := range fields {
		_, rest, found := strings.Cut(string(status), "\n"+field+":")
		line, _, _ := strings.Cut(rest, "\n")
		kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), "kB")), 10, 64)
		if !found || err != nil {
			return nil, false
		}
		out[i] = kb << 10
	}
	return out, true
}
