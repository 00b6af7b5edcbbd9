package server

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	verifai "repro"
	"repro/internal/cdc"
	"repro/internal/wal"
)

// newLeaderServer opens a durable system and serves it with the change
// feed wired — the exact wiring cmd/verifai serve uses on a leader.
func newLeaderServer(t *testing.T) (*verifai.System, *httptest.Server) {
	t.Helper()
	sys, err := verifai.Open(filepath.Join(t.TempDir(), "data"), verifai.OpenOptions{
		Options: verifai.ExactOptions(1), Sync: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	log, floor, ckpt, format, ok := sys.ChangeFeed()
	if !ok {
		t.Fatal("durable system reports no change feed")
	}
	ts := httptest.NewServer(New(sys.Pipeline(), WithChangeFeed(ChangeFeedConfig{
		Log: log, Floor: floor, CheckpointTar: ckpt, Format: format,
	})))
	t.Cleanup(ts.Close)
	return sys, ts
}

// drainChanges reads one change-feed response to EOF, returning the
// non-heartbeat records.
func drainChanges(t *testing.T, resp *http.Response) []wal.Record {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("changes status = %d body = %s", resp.StatusCode, body)
	}
	dec := cdc.NewDecoder(resp.Body)
	var recs []wal.Record
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("decode change stream: %v", err)
		}
		if rec.Kind == cdc.KindHeartbeat {
			continue
		}
		recs = append(recs, rec)
	}
}

func TestChangesStreamAndCursorResume(t *testing.T) {
	sys, ts := newLeaderServer(t)
	for i := 0; i < 5; i++ {
		if err := sys.AddDocument(&verifai.Document{ID: fmt.Sprintf("d%d", i), Text: "body"}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0&wait=200ms")
	if err != nil {
		t.Fatal(err)
	}
	recs := drainChanges(t, resp)
	if len(recs) != 5 {
		t.Fatalf("streamed %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d has version %d, want %d", i, rec.Version, i+1)
		}
	}

	// Resuming from a cursor re-serves only the tail past it.
	resp, err = http.Get(ts.URL + cdc.ChangesPath + "?from=3&wait=200ms")
	if err != nil {
		t.Fatal(err)
	}
	recs = drainChanges(t, resp)
	if len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("resume from 3 streamed %+v, want versions [4 5]", recs)
	}
}

func TestChangesBelowFloorIs410(t *testing.T) {
	sys, ts := newLeaderServer(t)
	if err := sys.AddDocument(&verifai.Document{ID: "d1", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	ckptVersion, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("from=0 below floor: status = %d, want 410", resp.StatusCode)
	}
	var gone struct {
		Error     string `json:"error"`
		Floor     uint64 `json:"floor"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	if gone.Floor != ckptVersion {
		t.Errorf("410 body floor = %d, want %d", gone.Floor, ckptVersion)
	}
	// The feed's 410 is an error body like every other: error and request_id.
	if id := resp.Header.Get("X-Request-Id"); gone.Error == "" || id == "" || gone.RequestID != id {
		t.Errorf("410 body error=%q request_id=%q, want an error and the response's X-Request-Id %q", gone.Error, gone.RequestID, id)
	}

	// From the floor itself the stream serves (nothing yet past it).
	resp2, err := http.Get(fmt.Sprintf("%s%s?from=%d&wait=100ms", ts.URL, cdc.ChangesPath, ckptVersion))
	if err != nil {
		t.Fatal(err)
	}
	if recs := drainChanges(t, resp2); len(recs) != 0 {
		t.Errorf("stream from floor yielded %+v, want none", recs)
	}
}

func TestChangesSSE(t *testing.T) {
	sys, ts := newLeaderServer(t)
	if err := sys.AddDocument(&verifai.Document{ID: "d1", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0&format=sse&wait=200ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != cdc.ContentTypeSSE {
		t.Fatalf("SSE content type = %q", ct)
	}
	dec := cdc.NewSSEDecoder(resp.Body)
	rec, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || rec.Kind != wal.KindDocument || rec.Doc == nil || rec.Doc.ID != "d1" {
		t.Fatalf("SSE record = %+v", rec)
	}
}

func TestChangesHeartbeats(t *testing.T) {
	_, ts := newLeaderServer(t)
	// Idle feed: only heartbeats arrive, then the wait budget ends cleanly.
	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0&heartbeat=100ms&wait=350ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := cdc.NewDecoder(resp.Body)
	beats := 0
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if rec.Kind != cdc.KindHeartbeat {
			t.Fatalf("idle feed produced %+v", rec)
		}
		beats++
	}
	if beats < 2 {
		t.Errorf("got %d heartbeats over 350ms at 100ms pace, want >= 2", beats)
	}
}

func TestReplicaCheckpointEndpoint(t *testing.T) {
	sys, ts := newLeaderServer(t)
	resp, err := http.Get(ts.URL + cdc.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint tar before any checkpoint: status = %d, want 404", resp.StatusCode)
	}

	if err := sys.AddDocument(&verifai.Document{ID: "d1", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + cdc.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint tar: status = %d", resp.StatusCode)
	}
	tr := tar.NewReader(resp.Body)
	sawMeta := false
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Name == "META.json" {
			sawMeta = true
		}
	}
	if !sawMeta {
		t.Error("checkpoint tar carries no META.json")
	}
}

func TestFollowerRejectsIngest(t *testing.T) {
	sys, err := verifai.Open(filepath.Join(t.TempDir(), "data"), verifai.OpenOptions{
		Options: verifai.ExactOptions(1), Sync: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	fts := httptest.NewServer(New(sys.Pipeline(), WithFollower("http://leader.example")))
	t.Cleanup(fts.Close)

	for _, path := range []string{"/v1/ingest/table", "/v1/ingest/document", "/v1/ingest/triple", "/v1/ingest/batch"} {
		resp, body := postJSON(t, fts.URL+path, map[string]any{})
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("POST %s on follower: status = %d body = %s, want 421", path, resp.StatusCode, body)
		}
		if loc := resp.Header.Get("Location"); loc != "http://leader.example" {
			t.Errorf("POST %s Location = %q", path, loc)
		}
	}
	// Reads still serve.
	var stats map[string]any
	if resp := getJSON(t, fts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/stats on follower: status = %d", resp.StatusCode)
	}
}

func TestMinVersionFreshness(t *testing.T) {
	sys, ts := newLeaderServer(t)
	if err := sys.Pipeline().Lake().AddSource(verifai.Source{ID: "s", Name: "s", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(&verifai.Document{ID: "d1", Text: "claim body", SourceID: "s"}); err != nil {
		t.Fatal(err)
	}
	v := sys.LakeVersion()

	// Satisfied freshness: the verify proceeds (and answers 200).
	resp, body := postJSON(t, fmt.Sprintf("%s/v1/verify/claim?min_version=%d", ts.URL, v), ClaimRequest{
		Text:  "In 1954 u.s. open (golf), the cash prize for x was 1 in total.",
		Kinds: []string{"text"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify with satisfied min_version: status = %d body = %s", resp.StatusCode, body)
	}

	// Unreachable freshness: 504 once the bounded wait expires.
	fast := httptest.NewServer(New(sys.Pipeline(), WithVerifyTimeout(50*time.Millisecond)))
	t.Cleanup(fast.Close)
	resp, body = postJSON(t, fmt.Sprintf("%s/v1/verify/claim?min_version=%d", fast.URL, v+1000), ClaimRequest{
		Text:  "In 1954 u.s. open (golf), the cash prize for x was 1 in total.",
		Kinds: []string{"text"},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("verify with unreachable min_version: status = %d body = %s, want 504", resp.StatusCode, body)
	}

	// Malformed token: 400.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/claim?min_version=abc", ClaimRequest{
		Text: "In 1954 u.s. open (golf), the cash prize for x was 1 in total.",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed min_version: status = %d, want 400", resp.StatusCode)
	}
}

// TestChangesLiveTail checks a consumer connected before the write sees it
// arrive over the live tail (no reconnect).
func TestChangesLiveTail(t *testing.T) {
	sys, ts := newLeaderServer(t)
	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0&wait=5s&heartbeat=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if err := sys.AddDocument(&verifai.Document{ID: "live", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	dec := cdc.NewDecoder(resp.Body)
	for {
		rec, err := dec.Next()
		if err != nil {
			t.Fatalf("decode live tail: %v", err)
		}
		if rec.Kind == cdc.KindHeartbeat {
			continue
		}
		if rec.Version != 1 || rec.Doc == nil || rec.Doc.ID != "live" {
			t.Fatalf("live record = %+v", rec)
		}
		return
	}
}

// TestChangesSourceLeavesCursor: a source record carries the version of
// the mutation after it, so the feed must not advance its cursor past
// that mutation before it commits, or a consumer waits out the next
// heartbeat (here, the whole session) for it.
func TestChangesSourceLeavesCursor(t *testing.T) {
	sys, ts := newLeaderServer(t)
	if err := sys.Pipeline().Lake().AddSource(verifai.Source{ID: "late", Name: "late", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + cdc.ChangesPath + "?from=0&wait=3s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := cdc.NewDecoder(resp.Body)
	added := false
	for {
		rec, err := dec.Next()
		if err != nil {
			t.Fatalf("stream ended before the document after the source: %v", err)
		}
		switch {
		case rec.Kind == wal.KindSource && rec.Source.ID == "late" && !added:
			if err := sys.AddDocument(&verifai.Document{ID: "after", Text: "body"}); err != nil {
				t.Fatal(err)
			}
			added = true
		case rec.Doc != nil && rec.Doc.ID == "after":
			return
		}
	}
}
