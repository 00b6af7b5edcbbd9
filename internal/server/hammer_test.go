package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	verifai "repro"
	"repro/internal/workload"
)

// TestConcurrentIngestQueryCheckpoint hammers a durable deployment with
// simultaneous ingest writers, version/stats/verify readers, and
// POST /v1/admin/checkpoint callers (run under -race in CI). It asserts
// the invariants the two-phase checkpoint protocol promises the API:
//
//   - GET /v1/lake/version never goes backwards;
//   - every ingest succeeds while checkpoints run (non-blocking);
//   - overlapping checkpoints answer 200 or 409, never anything else,
//     and at least one succeeds;
//   - the final state recovers: a fresh Open of the same data dir sees
//     every acknowledged write.
func TestConcurrentIngestQueryCheckpoint(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	open := func() *verifai.System {
		sys, err := verifai.Open(dataDir, verifai.OpenOptions{Options: verifai.ExactOptions(1), Sync: "none"})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	srv := New(sys.Pipeline(), WithDurability(
		func() verifai.DurabilityStats { st, _ := sys.Durability(); return st },
		sys.Checkpoint,
	))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Goroutine-safe HTTP helpers: postJSON/getJSON t.Fatal on transport
	// errors, which is illegal off the test goroutine, so the hammer's
	// workers use these error-returning twins instead.
	doPost := func(url string, body any) (int, []byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	doGet := func(url string, into any) (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}

	const writers, docsPerWriter = 3, 30
	var (
		wg               sync.WaitGroup
		writersLeft      atomic.Int32
		ckptOK           atomic.Int32
		ckptBusy         atomic.Int32
		coherenceIngests atomic.Int32
	)
	writersLeft.Store(writers)
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Ingest writers: every document POST must succeed (200) no matter
	// what the checkpointers are doing.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersLeft.Add(-1)
			for i := 0; i < docsPerWriter; i++ {
				status, body, err := doPost(ts.URL+"/v1/ingest/document", IngestDocumentRequest{
					ID:   fmt.Sprintf("w%d-d%03d", w, i),
					Text: fmt.Sprintf("writer %d document %d about golf scores", w, i),
				})
				if err != nil || status != http.StatusOK {
					report("writer %d doc %d: status %d err %v body %s", w, i, status, err, body)
					return
				}
			}
		}(w)
	}

	// Version readers: monotonic watermark while everything else churns.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for writersLeft.Load() > 0 {
				var v struct {
					Version uint64 `json:"version"`
				}
				status, err := doGet(ts.URL+"/v1/lake/version", &v)
				if err != nil || status != http.StatusOK {
					report("lake/version status %d err %v", status, err)
					return
				}
				if v.Version < last {
					report("lake version went backwards: %d after %d", v.Version, last)
					return
				}
				last = v.Version
			}
		}()
	}

	// Verification reader: retrieval keeps answering during checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		claim := workload.GolfClaim()
		for i := 0; writersLeft.Load() > 0 && i < 10; i++ {
			status, body, err := doPost(ts.URL+"/v1/verify/claim", ClaimRequest{ID: "hammer", Text: claim.Text})
			if err != nil || status != http.StatusOK {
				report("verify during churn: status %d err %v body %s", status, err, body)
				return
			}
		}
	}()

	// Cache-coherence worker: a verify issued after an ingest ack must
	// never serve a pre-ingest cached verdict. Each round warms the result
	// cache with a claim about a not-yet-ingested table (NotRelated),
	// ingests the table through the API (the 200 ack implies it is indexed
	// and the cache's per-kind watermark advanced), then re-verifies the
	// identical claim — same ID, same text, same fingerprint: it must come
	// back Verified against the new table, not the cached NotRelated.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; writersLeft.Load() > 0 && i < 5; i++ {
			id := fmt.Sprintf("coherence-%d", i)
			claim := ClaimRequest{
				ID:   id,
				Text: fmt.Sprintf("In coherence round %d, the money for alice%d was 57%d.", i, i, i),
			}
			var pre VerifyResponse
			status, body, err := doPost(ts.URL+"/v1/verify/claim", claim)
			if err != nil || status != http.StatusOK {
				report("coherence %d pre-verify: status %d err %v body %s", i, status, err, body)
				return
			}
			if err := json.Unmarshal(body, &pre); err != nil {
				report("coherence %d pre-verify decode: %v", i, err)
				return
			}
			status, body, err = doPost(ts.URL+"/v1/ingest/table", IngestTableRequest{
				ID:      fmt.Sprintf("coherence-table-%d", i),
				Caption: fmt.Sprintf("coherence round %d", i),
				Columns: []string{"player", "money"},
				Rows:    [][]string{{fmt.Sprintf("alice%d", i), fmt.Sprintf("57%d", i)}},
			})
			if err != nil || status != http.StatusOK {
				report("coherence %d ingest: status %d err %v body %s", i, status, err, body)
				return
			}
			coherenceIngests.Add(1)
			status, body, err = doPost(ts.URL+"/v1/verify/claim", claim)
			if err != nil || status != http.StatusOK {
				report("coherence %d post-verify: status %d err %v body %s", i, status, err, body)
				return
			}
			var post VerifyResponse
			if err := json.Unmarshal(body, &post); err != nil {
				report("coherence %d post-verify decode: %v", i, err)
				return
			}
			if post.Verdict != "Verified" {
				report("coherence %d: post-ingest verdict %q (pre was %q) — stale cached verdict served after an acknowledged ingest",
					i, post.Verdict, pre.Verdict)
				return
			}
		}
	}()

	// Checkpoint callers: overlap is 409, success is 200, nothing else.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writersLeft.Load() > 0 {
				status, body, err := doPost(ts.URL+"/v1/admin/checkpoint", struct{}{})
				if err != nil {
					report("checkpoint: %v", err)
					return
				}
				switch status {
				case http.StatusOK:
					ckptOK.Add(1)
				case http.StatusConflict:
					ckptBusy.Add(1)
				default:
					report("checkpoint: status %d body %s", status, body)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if ckptOK.Load() == 0 {
		t.Fatal("no checkpoint succeeded during the hammer")
	}
	t.Logf("checkpoints under churn: %d ok, %d busy (409)", ckptOK.Load(), ckptBusy.Load())

	// One more checkpoint on the quiet system, then a clean restart must
	// recover every acknowledged write.
	wantVersion := sys.LakeVersion()
	if want := uint64(1 + writers*docsPerWriter + int(coherenceIngests.Load())); wantVersion != want {
		t.Fatalf("final version = %d, want %d", wantVersion, want)
	}
	resp, body := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final checkpoint: status %d body %s", resp.StatusCode, body)
	}
	var ack CheckpointResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != wantVersion {
		t.Fatalf("final checkpoint at version %d, want %d", ack.Version, wantVersion)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := open()
	defer sys2.Close()
	if got := sys2.LakeVersion(); got != wantVersion {
		t.Fatalf("recovered version = %d, want %d", got, wantVersion)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < docsPerWriter; i++ {
			id := fmt.Sprintf("w%d-d%03d", w, i)
			if _, ok := sys2.Pipeline().Lake().Document(id); !ok {
				t.Fatalf("recovered lake lost %s", id)
			}
		}
	}
}
