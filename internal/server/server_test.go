package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/verify"
	"repro/internal/workload"
)

// newTestServer builds a server over the Figure 1/4 case lake with exact
// reasoning.
func newTestServer(t *testing.T) *httptest.Server {
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
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestVerifyClaimEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{
		ID:   "fig4",
		Text: "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict != "Refuted" || vr.ID != "fig4" {
		t.Errorf("response = %+v", vr)
	}
	if len(vr.Evidence) == 0 || !strings.Contains(vr.Evidence[0].Explanation, "1710") {
		t.Errorf("evidence = %+v", vr.Evidence)
	}
	if vr.ProvenanceSeq < 0 {
		t.Error("no provenance seq")
	}

	// The provenance endpoint serves the recorded lineage.
	pr, err := http.Get(fmt.Sprintf("%s/v1/provenance?seq=%d", ts.URL, vr.ProvenanceSeq))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("provenance status = %d", pr.StatusCode)
	}
	var rec provenance.Record
	if err := json.NewDecoder(pr.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ObjectID != "fig4" || rec.FinalVerdict != "Refuted" {
		t.Errorf("provenance record = %+v", rec)
	}
}

func TestVerifyTupleEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(2)
	resp, body := postJSON(t, ts.URL+"/v1/verify/tuple", TupleRequest{
		ID:      "fig1",
		Caption: tp.Caption,
		Columns: tp.Columns,
		Values:  []string{tp.Values[0], "dave hobson", tp.Values[2]},
		Attr:    "incumbent",
		Kinds:   []string{"tuple"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict != "Refuted" {
		t.Errorf("verdict = %s", vr.Verdict)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var tables, texts int
	if err := json.Unmarshal(stats["tables"], &tables); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stats["texts"], &texts); err != nil {
		t.Fatal(err)
	}
	if tables != 3 || texts != 1 {
		t.Errorf("stats = %v", stats)
	}
	// The serving section surfaces the result-cache counters and the
	// admission limiter's configuration.
	var serving struct {
		Pipeline         core.Stats `json:"pipeline"`
		VerifyConc       int        `json:"verify_concurrency"`
		VerifyInFlight   int        `json:"verify_in_flight"`
		VerifyRejections uint64     `json:"verify_rejected"`
	}
	if err := json.Unmarshal(stats["serving"], &serving); err != nil {
		t.Fatalf("serving section: %v", err)
	}
	if serving.VerifyConc <= 0 {
		t.Errorf("verify_concurrency = %d, want a positive default", serving.VerifyConc)
	}

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
}

// TestWrongMethodIs405 walks every route with a method it does not take:
// each answers 405 with an error body naming the methods it does take and
// echoing the response's request ID. /v1/healthz takes every method.
func TestWrongMethodIs405(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct{ method, path, msg string }{
		{http.MethodGet, "/v1/verify/claim", "POST required"},
		{http.MethodGet, "/v1/verify/tuple", "POST required"},
		{http.MethodGet, "/v1/verify/batch", "POST required"},
		{http.MethodGet, "/v1/ingest/table", "POST required"},
		{http.MethodGet, "/v1/ingest/document", "POST required"},
		{http.MethodGet, "/v1/ingest/triple", "POST required"},
		{http.MethodGet, "/v1/ingest/batch", "POST required"},
		{http.MethodGet, "/v1/admin/checkpoint", "POST required"},
		{http.MethodDelete, "/v1/snapshots", "GET or POST required"},
		{http.MethodPost, "/v1/changes", "GET required"},
		{http.MethodPost, "/v1/replica/checkpoint", "GET required"},
		{http.MethodPost, "/v1/lake/version", "GET required"},
		{http.MethodPost, "/v1/stats", "GET required"},
		{http.MethodPost, "/v1/provenance", "GET required"},
		{http.MethodPost, "/metrics", "GET required"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil {
			t.Errorf("%s %s = %d (decode: %v), want 405 with a JSON body", tc.method, tc.path, resp.StatusCode, err)
			continue
		}
		if id := resp.Header.Get("X-Request-Id"); body.Error != tc.msg || id == "" || body.RequestID != id {
			t.Errorf("%s %s body = %+v, want error %q and request_id %q", tc.method, tc.path, body, tc.msg, id)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/healthz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE /v1/healthz = %d, want 200", resp.StatusCode)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts := newTestServer(t)

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/verify/claim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET claim = %d", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/verify/claim", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d", resp.StatusCode)
	}

	// Missing text.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty text = %d", resp.StatusCode)
	}

	// Unparseable claim.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{Text: "free-form text"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unparseable claim = %d", resp.StatusCode)
	}

	// Unknown kind.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{
		Text:  "In x, the a for b was c.",
		Kinds: []string{"hologram"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind = %d", resp.StatusCode)
	}

	// Tuple arity mismatch.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/tuple", TupleRequest{
		Columns: []string{"a", "b"}, Values: []string{"1"}, Attr: "a",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("arity mismatch = %d", resp.StatusCode)
	}

	// Tuple with unknown attribute.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/tuple", TupleRequest{
		Columns: []string{"a"}, Values: []string{"1"}, Attr: "ghost",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown attr = %d", resp.StatusCode)
	}

	// Provenance with bad seq.
	pr, err := http.Get(ts.URL + "/v1/provenance?seq=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seq = %d", pr.StatusCode)
	}
	pr, err = http.Get(ts.URL + "/v1/provenance?seq=999")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Errorf("missing seq = %d", pr.StatusCode)
	}
}

// TestProvenanceByObject: ?object_id= lists an object's lineage oldest
// first, an unknown object is an empty list, and seq and object_id are
// mutually exclusive; /v1/stats reports the store's size.
func TestProvenanceByObject(t *testing.T) {
	ts := newTestServer(t)
	claim := "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total."
	// Different kinds miss the result cache, so the object gets two records.
	for _, kinds := range [][]string{{"table"}, {"table", "text"}} {
		if resp, body := postJSON(t, ts.URL+"/v1/verify/claim", ClaimRequest{ID: "a b&c", Text: claim, Kinds: kinds}); resp.StatusCode != http.StatusOK {
			t.Fatalf("verify = %d (%s)", resp.StatusCode, body)
		}
	}
	var recs []provenance.Record
	if resp := getJSON(t, ts.URL+"/v1/provenance?object_id=a+b%26c", &recs); resp.StatusCode != http.StatusOK {
		t.Fatalf("by object = %d", resp.StatusCode)
	}
	if len(recs) != 2 || recs[0].Seq != 0 || recs[1].Seq != 1 || recs[1].ObjectID != "a b&c" || len(recs[1].Hits) == 0 {
		t.Errorf("by object = %+v", recs)
	}
	if resp := getJSON(t, ts.URL+"/v1/provenance?object_id=ghost", &recs); resp.StatusCode != http.StatusOK || recs == nil || len(recs) != 0 {
		t.Errorf("unknown object = %d, %v; want 200 and []", resp.StatusCode, recs)
	}
	for _, query := range []string{"", "?seq=0&object_id=a"} {
		var e map[string]string
		if resp := getJSON(t, ts.URL+"/v1/provenance"+query, &e); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/provenance%s = %d, want 400", query, resp.StatusCode)
		}
	}

	var stats struct {
		Provenance provenance.Stats `json:"provenance"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if p := stats.Provenance; p.Records != 2 || p.Segments != 1 || p.Bytes <= 0 || p.DictionaryEntries == 0 {
		t.Errorf("stats provenance block = %+v", p)
	}
}
