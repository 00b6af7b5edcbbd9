package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	verifai "repro"
	"repro/internal/binfmt"
	"repro/internal/provenance"
	"repro/internal/workload"
)

// TestMemoryLedger drives a durable server over a workload lake — ingest,
// checkpoint, a thousand verifications — and reads the memory block of
// GET /v1/stats: the provenance arena and the mapped BM25 files show under
// their own classes, the same bytes the provenance and indexes blocks
// report, the token table is a nonzero resident class, /metrics
// carries every class, and on Linux the resident classes add up to VmRSS
// within 5 %. The runtime counts a few MB of sparse tables
// (profiling buckets, arena metadata) that are mapped but mostly not
// resident, so the sum is checked on the default lake, at the size the
// benchmark serves, and not under the race detector, whose shadow memory
// is in no class.
func TestMemoryLedger(t *testing.T) {
	cfg, verifies := workload.DefaultConfig(), 1000
	if raceEnabled || testing.Short() {
		cfg.NumTables, cfg.NumTexts, verifies = 150, 50, 100
	}
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	sys, err := verifai.Open(filepath.Join(t.TempDir(), "data"), verifai.OpenOptions{Options: verifai.ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var items []verifai.BatchItem
	for _, id := range corpus.Lake.TableIDs() {
		tb, _ := corpus.Lake.Table(id)
		items = append(items, verifai.BatchItem{Table: tb})
	}
	for _, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		items = append(items, verifai.BatchItem{Doc: d})
	}
	if _, err := sys.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys.Pipeline(), WithObs(sys.Metrics())))
	t.Cleanup(ts.Close)
	tasks, err := corpus.ClaimTasks(verifies)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range tasks {
		if resp, body := postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{ID: fmt.Sprintf("c%d", i), Text: ct.Claim.Text}); resp.StatusCode != http.StatusOK {
			t.Fatalf("verify %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	var stats struct {
		Memory     map[string]int64 `json:"memory"`
		Provenance provenance.Stats `json:"provenance"`
		Indexes    struct {
			Families map[string]struct {
				MappedBytes int64 `json:"mapped_bytes"`
			} `json:"families"`
		} `json:"indexes"`
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	mem := stats.Memory
	t.Logf("memory: %v", mem)
	for _, class := range append(residentClasses, "go_heap_goal", "go_heap_released", "go_profiling_buckets", "accounted") {
		if _, ok := mem[class]; (!ok && (class != "file_other" || runtime.GOOS == "linux")) || mem[class] < 0 {
			t.Errorf("memory[%q] = %d (present %v)", class, mem[class], ok)
		}
	}
	if mem["go_heap_live"] == 0 || mem["go_heap_goal"] < mem["go_heap_live"] {
		t.Errorf("go heap live %d, goal %d", mem["go_heap_live"], mem["go_heap_goal"])
	}
	maps := runtime.GOOS == "linux" && os.Getenv(binfmt.NoMmapEnv) == ""
	if tt := mem["token_table"]; maps && tt <= 0 {
		t.Errorf("token_table = %d", tt)
	}
	if got, want := mem["offheap_provenance"], stats.Provenance.OffHeapBytes; got != want || stats.Provenance.Records != len(tasks) {
		t.Errorf("offheap_provenance = %d, provenance block %+v", got, stats.Provenance)
	}
	if maps && (stats.Provenance.OffHeapBytes == 0 || mem["offheap_indexes"] == 0) {
		t.Errorf("nothing off the heap: provenance %+v, indexes %d", stats.Provenance, mem["offheap_indexes"])
	}
	if got, want := mem["mapped_bm25"], stats.Indexes.Families["bm25"].MappedBytes; got != want || maps && got == 0 {
		t.Errorf("mapped_bm25 = %d, indexes block %d", got, want)
	}
	exposition := scrape(t, ts)
	for class := range mem {
		if !strings.Contains(exposition, `verifai_memory_bytes{class="`+class+`"} `) {
			t.Errorf("/metrics lacks verifai_memory_bytes{class=%q}", class)
		}
	}

	if runtime.GOOS != "linux" || cfg.NumTables != workload.DefaultConfig().NumTables {
		return
	}
	rss := mem["vm_rss"]
	if rss == 0 || mem["rss_anon"]+mem["rss_file"] > rss {
		t.Fatalf("VmRSS %d, RssAnon %d, RssFile %d", rss, mem["rss_anon"], mem["rss_file"])
	}
	if diff := mem["accounted"] - rss; diff*20 > rss || -diff*20 > rss {
		t.Errorf("resident classes sum to %d bytes, VmRSS is %d (%+.1f%%)", mem["accounted"], rss, 100*float64(diff)/float64(rss))
	}
}
