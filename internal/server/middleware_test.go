package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/verify"
	"repro/internal/workload"
)

// newObsServer builds a case-lake server with direct access to the Server
// value (newTestServer hides it behind httptest), for middleware and
// metrics assertions.
func newObsServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	lake := datalake.New()
	lake.AddSource(datalake.Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9})
	if err := lake.AddTable(workload.USOpen1954Table()); err != nil {
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
	srv := New(p, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeExposition {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypeExposition)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMiddlewareInstrumentsEveryRoute drives one request at every
// registered /v1/* route and asserts the middleware recorded a status
// counter and a latency histogram for each — new routes are instrumented
// by construction, and this test catches any that somehow bypass the
// middleware.
func TestMiddlewareInstrumentsEveryRoute(t *testing.T) {
	_, ts := newObsServer(t)
	routes := []string{
		"/v1/verify/claim", "/v1/verify/tuple", "/v1/verify/batch",
		"/v1/ingest/table", "/v1/ingest/document", "/v1/ingest/triple",
		"/v1/ingest/batch", "/v1/admin/checkpoint",
		cdc.ChangesPath, cdc.CheckpointPath,
		"/v1/lake/version", "/v1/stats", "/v1/provenance", "/v1/healthz",
	}
	for _, route := range routes {
		// GET everywhere: handlers answer 200, 400, 404, or 405 — any
		// status proves the request passed through the middleware.
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		resp.Body.Close()
	}
	body := scrape(t, ts)
	for _, route := range routes {
		if !strings.Contains(body, fmt.Sprintf(`verifai_http_requests_total{route=%q,status=`, route)) {
			t.Errorf("no status counter for route %s", route)
		}
		if !strings.Contains(body, fmt.Sprintf(`verifai_http_request_duration_seconds_count{route=%q}`, route)) {
			t.Errorf("no latency histogram for route %s", route)
		}
	}
	// Unregistered paths collapse into one bounded "unmatched" label
	// instead of minting a metric series per probe path.
	resp, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body := scrape(t, ts); !strings.Contains(body, `verifai_http_requests_total{route="unmatched",status="404"}`) {
		t.Error("unregistered path not recorded under the unmatched route")
	}
}

// TestErrorBodiesCarryRequestID asserts every error response names the
// request that failed: the JSON body carries the same request_id the
// X-Request-Id response header does.
func TestErrorBodiesCarryRequestID(t *testing.T) {
	_, ts := newObsServer(t)
	resp, err := http.Post(ts.URL+"/v1/verify/claim", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Error("error body missing error field")
	}
	header := resp.Header.Get("X-Request-Id")
	if header == "" {
		t.Fatal("no X-Request-Id response header")
	}
	if body["request_id"] != header {
		t.Errorf("body request_id = %q, header = %q", body["request_id"], header)
	}
}

// TestRequestIDPropagates asserts a caller-supplied X-Request-Id survives
// into the response header (and therefore into error bodies and logs),
// so one ID can follow a request across a fleet.
func TestRequestIDPropagates(t *testing.T) {
	_, ts := newObsServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chosen-id" {
		t.Errorf("X-Request-Id = %q, want the caller's id", got)
	}
}

// TestFollowerRejectCarriesRequestID asserts the 421 follower write
// rejection keeps the common error shape: error, leader, and request_id.
func TestFollowerRejectCarriesRequestID(t *testing.T) {
	_, ts := newObsServer(t, WithFollower("http://leader:8080"))
	resp, err := http.Post(ts.URL+"/v1/ingest/table", "application/json",
		strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d, want 421", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["leader"] != "http://leader:8080" {
		t.Errorf("leader = %q", body["leader"])
	}
	if body["error"] == "" || body["request_id"] == "" {
		t.Errorf("421 body missing error or request_id: %v", body)
	}
	if body["request_id"] != resp.Header.Get("X-Request-Id") {
		t.Errorf("request_id mismatch: body %q, header %q",
			body["request_id"], resp.Header.Get("X-Request-Id"))
	}
}

// TestMetricsExpositionLints runs the obs linter over a live scrape after
// real traffic: the hand-rolled exposition must stay parseable by
// Prometheus (HELP/TYPE present, no duplicates, histogram series
// complete).
func TestMetricsExpositionLints(t *testing.T) {
	_, ts := newObsServer(t)
	resp, _ := http.Get(ts.URL + "/v1/healthz")
	if resp != nil {
		resp.Body.Close()
	}
	postBody := strings.NewReader(`{"id":"x","text":"In 1954 u.s. open (golf), the cash prize for tommy bolt was 1500."}`)
	if resp, err := http.Post(ts.URL+"/v1/verify/claim", "application/json", postBody); err == nil {
		resp.Body.Close()
	}
	body := scrape(t, ts)
	for _, err := range obs.Lint(strings.NewReader(body)) {
		t.Errorf("lint: %v", err)
	}
}

// TestDebugRoutes asserts the debug surface stays off the API mux and is
// served, as the CLI's -debug-addr serves it, by obs.DebugHandler over the
// server's registry on a listener of its own: pprof answers there, and the
// trace ring holds the API listener's requests.
func TestDebugRoutes(t *testing.T) {
	srv, api := newObsServer(t)
	for _, path := range []string{"/debug/traces", "/debug/pprof/"} {
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on the API mux = %d, want 404", path, resp.StatusCode)
		}
	}

	dbg := httptest.NewServer(obs.DebugHandler(srv.Metrics()))
	t.Cleanup(dbg.Close)
	if resp, err := http.Get(api.URL + "/v1/healthz"); err == nil {
		resp.Body.Close()
	}
	resp, err := http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", resp.StatusCode)
	}
	var traces []obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces {
		found = found || tr.Route == "/v1/healthz"
	}
	if !found {
		t.Errorf("trace ring holds no /v1/healthz request: %+v", traces)
	}
	pp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d", pp.StatusCode)
	}
}
