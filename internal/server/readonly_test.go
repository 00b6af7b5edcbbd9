package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	verifai "repro"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// TestPoisonedWALIsLoud: after one append's fsync fails the write-ahead
// log refuses every append, and the server says so. That ingest fails, the
// next ingest answers 503 naming the read-only log, /v1/healthz answers
// 503 read_only, verifai_wal_poisoned reads 1 — and verification, which
// writes nothing durable, still answers 200.
func TestPoisonedWALIsLoud(t *testing.T) {
	ffs := faultfs.New(nil)
	st, err := durable.Open(filepath.Join(t.TempDir(), "data"), durable.Options{Sync: wal.SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := verifai.NewSystem(st.Lake(), verifai.ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Close(); st.Close() }()
	st.SetMetrics(sys.Metrics())
	if err := st.ReplayTail(); err != nil {
		t.Fatal(err)
	}
	st.Arm()
	ts := httptest.NewServer(New(sys.Pipeline(), WithObs(sys.Metrics()), WithDurability(st.Stats, nil)))
	defer ts.Close()

	ingest := func(id string) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/ingest/table", IngestTableRequest{ID: id, Caption: "my caption",
			Columns: []string{"player", "prize"}, Rows: [][]string{{"arnold palmer", "1400"}}})
	}
	health := func() (int, map[string]string) {
		var body map[string]string
		resp := getJSON(t, ts.URL+"/v1/healthz", &body)
		return resp.StatusCode, body
	}
	if resp, body := ingest("t1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest before the fault: %d %s", resp.StatusCode, body)
	}
	if code, body := health(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz before the fault: %d %v", code, body)
	}
	if strings.Contains(scrape(t, ts), "\nverifai_wal_poisoned 1\n") {
		t.Fatal("verifai_wal_poisoned reads 1 before the fault")
	}

	var armed atomic.Bool
	armed.Store(true)
	ffs.SetFailOn(func(op faultfs.Op, path string) error {
		if op == faultfs.OpSync && strings.HasSuffix(filepath.Dir(path), "wal") && armed.CompareAndSwap(true, false) {
			return syscall.EIO
		}
		return nil
	})
	if resp, body := ingest("t2"); resp.StatusCode == http.StatusOK {
		t.Fatalf("the ingest whose fsync failed answered 200: %s", body)
	}
	if armed.Load() {
		t.Fatal("the ingest did not fsync the log")
	}
	resp, body := ingest("t3")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "read-only") {
		t.Errorf("ingest into a poisoned log: %d %s, want 503 naming the read-only log", resp.StatusCode, body)
	}
	if code, body := health(); code != http.StatusServiceUnavailable || body["status"] != "read_only" || body["reason"] == "" {
		t.Errorf("healthz with a poisoned log: %d %v, want 503 read_only with a reason", code, body)
	}
	if !strings.Contains(scrape(t, ts), "\nverifai_wal_poisoned 1\n") {
		t.Error("verifai_wal_poisoned does not read 1")
	}
	if resp, body := postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{ID: "c1", Text: "In my caption, the prize for arnold palmer was 1400."}); resp.StatusCode != http.StatusOK {
		t.Errorf("verify with a poisoned log: %d %s", resp.StatusCode, body)
	}
}
