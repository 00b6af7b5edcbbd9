package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/verify"
	"repro/internal/workload"
)

// newSnapshotTestServer builds a server over the case lake and returns the
// pipeline alongside it, so tests can pin snapshots and move the head.
func newSnapshotTestServer(t *testing.T) (*httptest.Server, *core.Pipeline) {
	t.Helper()
	lake := datalake.New()
	lake.AddSource(datalake.Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9})
	if err := lake.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := lake.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	if err := lake.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if err := lake.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	indexer, err := core.BuildIndexer(lake, core.DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 128))
	agent := verify.NewAgent(verify.NewExactVerifier())
	p, err := core.NewPipeline(lake, indexer, registry, agent,
		provenance.NewStore(), nil, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)
	return ts, p
}

// TestVersionParamContract table-tests the ?version= error contract on the
// verify endpoints: 400 for malformed or zero, 404 ahead of the lake, 409
// for a plausible version nothing retained, 410 below the retention floor
// with the floor named in the body — every error carrying a request_id.
func TestVersionParamContract(t *testing.T) {
	ts, p := newSnapshotTestServer(t)
	// Pin at the seeded head (version 4), then move the head to 10.
	snap, err := p.PinSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := snap.Version()
	if pinned != 4 {
		t.Fatalf("pinned version = %d, want 4", pinned)
	}
	for i := 0; i < 6; i++ {
		if err := p.Lake().AddDocument(&doc.Document{
			ID: fmt.Sprintf("later-%d", i), Title: "later", Text: "later text",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if head := p.Lake().Version(); head != 10 {
		t.Fatalf("head = %d, want 10", head)
	}

	claim := ClaimRequest{
		ID:   "fig4",
		Text: "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.",
	}
	cases := []struct {
		name    string
		version string
		status  int
	}{
		{"non-numeric", "abc", http.StatusBadRequest},
		{"negative", "-3", http.StatusBadRequest},
		{"zero", "0", http.StatusBadRequest},
		{"fractional", "4.5", http.StatusBadRequest},
		{"ahead-of-lake", "99", http.StatusNotFound},
		{"plausible-not-retained", "7", http.StatusConflict},
		{"below-floor", "2", http.StatusGone},
		{"pinned", "4", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/verify/claim?version="+tc.version, claim)
			if resp.StatusCode != tc.status {
				t.Fatalf("?version=%s status = %d, want %d (%s)", tc.version, resp.StatusCode, tc.status, body)
			}
			if tc.status == http.StatusOK {
				var vr VerifyResponse
				if err := json.Unmarshal(body, &vr); err != nil {
					t.Fatal(err)
				}
				if vr.AsOfVersion != pinned {
					t.Fatalf("as_of_version = %d, want %d", vr.AsOfVersion, pinned)
				}
				if vr.Verdict != "Refuted" {
					t.Fatalf("pinned verdict = %q, want Refuted", vr.Verdict)
				}
				return
			}
			var e struct {
				Error     string  `json:"error"`
				RequestID string  `json:"request_id"`
				Floor     *uint64 `json:"floor"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %v (%s)", err, body)
			}
			if e.Error == "" {
				t.Fatalf("error body missing error field: %s", body)
			}
			if e.RequestID == "" {
				t.Fatalf("error body missing request_id: %s", body)
			}
			if tc.status == http.StatusGone {
				if e.Floor == nil || *e.Floor != pinned {
					t.Fatalf("410 body floor = %v, want %d (%s)", e.Floor, pinned, body)
				}
			} else if e.Floor != nil {
				t.Fatalf("non-410 body names a floor: %s", body)
			}
		})
	}

	// The same contract holds on the batch endpoint (probed before
	// admission, so the whole batch fails fast).
	resp, body := postJSON(t, ts.URL+"/v1/verify/batch?version=2", VerifyBatchRequest{
		Items: []VerifyBatchItem{{Type: "claim", ID: claim.ID, Text: claim.Text}},
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("batch ?version=2 status = %d, want 410 (%s)", resp.StatusCode, body)
	}
}

// TestSnapshotsEndpoint exercises GET/POST /v1/snapshots: listing, pinning
// the head, verifying at the new pin, and unpinning.
func TestSnapshotsEndpoint(t *testing.T) {
	ts, p := newSnapshotTestServer(t)
	head := p.Lake().Version()

	// Nothing retained yet.
	var list SnapshotsResponse
	getJSON(t, ts.URL+"/v1/snapshots", &list)
	if len(list.Snapshots) != 0 || list.Floor != 0 || list.Head != head {
		t.Fatalf("empty listing = %+v, want no snapshots, floor 0, head %d", list, head)
	}

	// Pin the head over HTTP.
	resp, body := postJSON(t, ts.URL+"/v1/snapshots", SnapshotActionRequest{Action: "pin"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin status = %d (%s)", resp.StatusCode, body)
	}
	var act SnapshotActionResponse
	if err := json.Unmarshal(body, &act); err != nil {
		t.Fatal(err)
	}
	if act.Status != "pinned" || act.Version != head {
		t.Fatalf("pin response = %+v, want pinned@%d", act, head)
	}

	getJSON(t, ts.URL+"/v1/snapshots", &list)
	if len(list.Snapshots) != 1 || !list.Snapshots[0].Pinned || list.Snapshots[0].Version != head || list.Floor != head {
		t.Fatalf("listing after pin = %+v", list)
	}

	// The pin is immediately readable.
	resp, body = postJSON(t, fmt.Sprintf("%s/v1/verify/claim?version=%d", ts.URL, act.Version), ClaimRequest{
		ID:   "pinned-read",
		Text: "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned verify status = %d (%s)", resp.StatusCode, body)
	}

	// Malformed actions.
	for _, bad := range []SnapshotActionRequest{
		{Action: "pin", Version: head}, // pin never takes a version
		{Action: "unpin"},              // unpin requires one
		{Action: "rewind", Version: 1}, // unknown action
	} {
		if resp, body := postJSON(t, ts.URL+"/v1/snapshots", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("action %+v status = %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/snapshots", SnapshotActionRequest{Action: "unpin", Version: 9999}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unpin of unknown version status = %d, want 404 (%s)", resp.StatusCode, body)
	}

	// Unpin; the snapshot drops back into the retention window (still
	// listed, no longer pinned).
	resp, body = postJSON(t, ts.URL+"/v1/snapshots", SnapshotActionRequest{Action: "unpin", Version: act.Version})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin status = %d (%s)", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v1/snapshots", &list)
	if len(list.Snapshots) != 1 || list.Snapshots[0].Pinned {
		t.Fatalf("listing after unpin = %+v", list)
	}
}

// TestCheckpointSnapshotRebuildsOnce: a checkpoint's snapshot holds no
// indexes, so the first ?version= read at it re-indexes its view and
// /v1/stats counts one rebuild; the second read reuses it.
func TestCheckpointSnapshotRebuildsOnce(t *testing.T) {
	ts, p := newSnapshotTestServer(t)
	view, err := p.Lake().Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterCheckpoint(view)
	if err := p.Lake().AddDocument(&doc.Document{ID: "later", Title: "later", Text: "later text"}); err != nil {
		t.Fatal(err)
	}
	claim := ClaimRequest{
		ID:   "fig4",
		Text: "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.",
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, fmt.Sprintf("%s/v1/verify/claim?version=%d", ts.URL, view.Version()), claim)
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil || resp.StatusCode != http.StatusOK || vr.Verdict != "Refuted" || vr.AsOfVersion != view.Version() {
			t.Fatalf("read %d at the checkpoint: status %d, %s", i, resp.StatusCode, body)
		}
	}
	var stats struct {
		Snapshots struct {
			Retained int    `json:"retained"`
			Rebuilt  uint64 `json:"rebuilt"`
		} `json:"snapshots"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Snapshots.Retained != 1 || stats.Snapshots.Rebuilt != 1 {
		t.Fatalf("/v1/stats snapshots = %+v, want one retained, rebuilt once", stats.Snapshots)
	}
}
