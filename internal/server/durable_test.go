package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	verifai "repro"
	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/workload"
)

// newClosedServer builds the case-lake server and then closes its system,
// emulating the shutdown window where HTTP requests still arrive.
func newClosedServer(t *testing.T) *httptest.Server {
	t.Helper()
	lake := verifai.NewLake()
	if err := lake.AddSource(verifai.Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := lake.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	sys, err := verifai.NewSystem(lake, verifai.ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys.Pipeline()))
	t.Cleanup(ts.Close)
	return ts
}

// TestIngestAfterCloseReturns503 checks every ingest endpoint, the batch
// one included, maps datalake.ErrClosed to 503 Service Unavailable.
func TestIngestAfterCloseReturns503(t *testing.T) {
	ts := newClosedServer(t)
	cases := []struct {
		name, path string
		body       interface{}
	}{
		{"table", "/v1/ingest/table", IngestTableRequest{ID: "late", Caption: "c", Columns: []string{"a"}, Rows: [][]string{{"1"}}}},
		{"document", "/v1/ingest/document", IngestDocumentRequest{ID: "late", Text: "x"}},
		{"triple", "/v1/ingest/triple", IngestTripleRequest{Subject: "s", Predicate: "p", Object: "o"}},
		{"batch", "/v1/ingest/batch", IngestBatchRequest{Items: []IngestBatchItem{
			{Type: "document", ID: "late1", Text: "x"},
			{Type: "triple", Subject: "s", Predicate: "p", Object: "o"},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("POST %s after close: status = %d body = %s, want 503", tc.path, resp.StatusCode, body)
			}
		})
	}
	// Reads keep working on the final state.
	var stats map[string]any
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/stats after close: status = %d", resp.StatusCode)
	}
}

// TestCheckpointEndpointWithoutDataDir checks in-memory deployments 404
// the admin endpoint.
func TestCheckpointEndpointWithoutDataDir(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("checkpoint without durability: status = %d, want 404", resp.StatusCode)
	}
}

// TestDurableServerSurfaces spins a durable system behind the server and
// checks POST /v1/admin/checkpoint and the durability section of
// GET /v1/stats — the wiring cmd/verifai serve uses.
func TestDurableServerSurfaces(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := verifai.Open(data, verifai.OpenOptions{
		Options: verifai.ExactOptions(1), Sync: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := New(sys.Pipeline(), WithDurability(
		func() verifai.DurabilityStats { st, _ := sys.Durability(); return st },
		sys.Checkpoint,
	), WithObs(sys.Metrics()))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, _ := postJSON(t, ts.URL+"/v1/ingest/document", IngestDocumentRequest{ID: "d1", Text: "hello durable world"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status = %d", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status = %d body = %s", resp.StatusCode, body)
	}
	var ack CheckpointResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != "checkpointed" || ack.Version != 1 {
		t.Errorf("checkpoint ack = %+v, want checkpointed at version 1", ack)
	}

	var stats struct {
		Texts      int                     `json:"texts"`
		Durability verifai.DurabilityStats `json:"durability"`
		Indexes    core.IndexStats         `json:"indexes"`
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status = %d", resp.StatusCode)
	}
	// The checkpoint folded the four BM25 indexes into the segments their
	// files hold: the one document sits in a sealed BM25 segment and in one
	// sealed vector row, held in process-private memory, and /metrics says
	// the same. What the BM25 family holds is what its four shard files
	// inflate to, whole, and the files are smaller. There are no vector
	// files.
	files, err := filepath.Glob(filepath.Join(data, "checkpoint", "indexes", "*.idx"))
	if err != nil || len(files) != 4 {
		t.Fatalf("index files: %v (%v)", files, err)
	}
	var fileBytes, inflated int64
	for _, path := range files {
		fi, err := os.Stat(path)
		if err != nil || !strings.HasPrefix(filepath.Base(path), "bm25-") {
			t.Fatalf("%s: %v", path, err)
		}
		fileBytes += fi.Size()
		r, err := binfmt.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inflated += r.Size()
	}
	bm25, vec := stats.Indexes.Families["bm25"], stats.Indexes.Families["vector"]
	if bm25.HeapBytes != inflated || fileBytes >= inflated ||
		bm25.DeltaDocs != 0 || vec.HeapBytes == 0 || vec.DeltaDocs != 0 {
		t.Errorf("stats.indexes after a checkpoint = %+v; the files hold %d bytes, inflating to %d", stats.Indexes, fileBytes, inflated)
	}
	exposition := scrape(t, ts)
	for _, want := range []string{
		fmt.Sprintf(`verifai_index_segment_bytes{family="bm25"} %d`, inflated),
		fmt.Sprintf(`verifai_index_segment_bytes{family="vector"} %d`, vec.HeapBytes),
		`verifai_index_delta_docs{family="bm25"} 0`,
		`verifai_index_derive_seconds 0`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if stats.Texts != 1 {
		t.Errorf("stats.texts = %d, want 1", stats.Texts)
	}
	if stats.Durability.SyncPolicy != "none" || stats.Durability.CheckpointVersion != 1 {
		t.Errorf("stats.durability = %+v", stats.Durability)
	}
	// catalog.vaib, META.json, and under indexes/ four index files and meta.json.
	if stats.Durability.CheckpointFiles != 7 || stats.Durability.CheckpointBytes <= 0 {
		t.Errorf("stats.durability reports a checkpoint of %d files, %d bytes; want 7 files",
			stats.Durability.CheckpointFiles, stats.Durability.CheckpointBytes)
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Errorf("second checkpoint: status = %d", resp.StatusCode)
	}
	// GET is not allowed on the admin endpoint.
	httpResp, err := http.Get(ts.URL + "/v1/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET checkpoint: status = %d, want 405", httpResp.StatusCode)
	}
}
