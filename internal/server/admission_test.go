package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/verify"
	"repro/internal/workload"
)

// gateVerifier blocks every verification until release is closed, so tests
// can hold the admission limiter saturated deterministically. It records
// the object of every call, in arrival order, and the most calls it has
// seen in flight at once.
type gateVerifier struct {
	started chan struct{}
	release chan struct{}

	mu                    sync.Mutex
	ids                   []string
	inFlight, maxInFlight int
}

func (v *gateVerifier) Name() string                                  { return "gate" }
func (v *gateVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (v *gateVerifier) Verify(g verify.Generated, ev datalake.Instance) (verify.Result, error) {
	v.mu.Lock()
	v.ids = append(v.ids, g.ID)
	v.inFlight++
	v.maxInFlight = max(v.maxInFlight, v.inFlight)
	v.mu.Unlock()
	select {
	case v.started <- struct{}{}:
	default:
	}
	<-v.release
	v.mu.Lock()
	v.inFlight--
	v.mu.Unlock()
	return verify.Result{Verdict: verify.Verified, Verifier: v.Name(), EvidenceID: ev.ID}, nil
}

// slowVerifier sleeps long enough for a short server-side deadline to
// expire mid-verification, on objects whose ID starts with prefix (every
// object when prefix is empty).
type slowVerifier struct {
	delay  time.Duration
	prefix string
}

func (v *slowVerifier) Name() string                                  { return "slow" }
func (v *slowVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (v *slowVerifier) Verify(g verify.Generated, ev datalake.Instance) (verify.Result, error) {
	if strings.HasPrefix(g.ID, v.prefix) {
		time.Sleep(v.delay)
	}
	return verify.Result{Verdict: verify.Verified, Verifier: v.Name(), EvidenceID: ev.ID}, nil
}

// newGatedServer builds a server over the case lake with the given agent
// verifier, result caching off (these tests need every request to reach
// the verifier), and the given server options.
func newGatedServer(t *testing.T, v verify.Verifier, opts ...Option) *httptest.Server {
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
	agent := verify.NewAgent(v)
	cfg := core.DefaultPipelineConfig()
	cfg.ResultCache = 0
	p, err := core.NewPipeline(lake, indexer, registry, agent, provenance.NewStore(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, opts...))
	t.Cleanup(ts.Close)
	return ts
}

// golfClaimBody is a parseable claim that retrieves the 1954 table.
func golfClaimBody(id string) ClaimRequest {
	return ClaimRequest{ID: id, Text: workload.GolfClaim().Text}
}

// TestVerifyAdmissionSaturation saturates a concurrency-1 server with one
// in-flight verification and asserts the next request is rejected with
// 429 + Retry-After instead of queueing, then admitted again once the
// slot frees.
func TestVerifyAdmissionSaturation(t *testing.T) {
	gate := &gateVerifier{started: make(chan struct{}, 1), release: make(chan struct{})}
	ts := newGatedServer(t, gate, WithVerifyConcurrency(1))

	var wg sync.WaitGroup
	wg.Add(1)
	firstStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, _ := postJSONErr(ts.URL+"/v1/verify/claim", golfClaimBody("holder"))
		firstStatus <- resp
	}()
	<-gate.started // the slot is now held inside the verifier

	resp, body := postJSON(t, ts.URL+"/v1/verify/claim", golfClaimBody("rejected"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The rejection is visible in /v1/stats.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Serving struct {
			Rejected uint64 `json:"verify_rejected"`
			Limit    int    `json:"verify_concurrency"`
		} `json:"serving"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Serving.Rejected != 1 || stats.Serving.Limit != 1 {
		t.Errorf("serving stats = %+v", stats.Serving)
	}

	close(gate.release)
	wg.Wait()
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("admitted request finished with %d", st)
	}

	// Slot released: the next request is admitted again.
	resp, body = postJSON(t, ts.URL+"/v1/verify/claim", golfClaimBody("after"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d (%s)", resp.StatusCode, body)
	}
}

// postJSONErr is postJSON without t.Fatal, for goroutines.
func postJSONErr(url string, body any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestVerifyDeadline asserts a server-side verify timeout aborts the
// pipeline and answers 504.
func TestVerifyDeadline(t *testing.T) {
	ts := newGatedServer(t, &slowVerifier{delay: 100 * time.Millisecond}, WithVerifyTimeout(5*time.Millisecond))
	resp, body := postJSON(t, ts.URL+"/v1/verify/claim", golfClaimBody("deadline"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
}

// TestBodyLimits asserts oversized bodies answer 413 with a JSON error
// instead of a generic decode 400.
func TestBodyLimits(t *testing.T) {
	ts := newTestServer(t)
	big := fmt.Sprintf(`{"id": "big", "text": %q}`, strings.Repeat("x", maxBodyBytes+1))
	resp, err := http.Post(ts.URL+"/v1/verify/claim", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if e["error"] == "" {
		t.Error("413 without error message")
	}

	// A valid document padded past the cap with whitespace is still a size
	// problem (413), not a framing one (400).
	padded := `{"id": "pad", "text": "In x, the a for b was c."}` + strings.Repeat(" ", maxBodyBytes+1)
	resp2, err := http.Post(ts.URL+"/v1/verify/claim", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded body status = %d, want 413", resp2.StatusCode)
	}
}

// TestStrictJSONDecoding asserts client typos fail loudly: unknown fields
// (the "kind" vs "kinds" case) and trailing documents answer 400.
func TestStrictJSONDecoding(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, path, body string
	}{
		{"unknown field on verify", "/v1/verify/claim", `{"text": "In x, the a for b was c.", "kind": ["table"]}`},
		{"unknown field on ingest", "/v1/ingest/document", `{"id": "d9", "text": "t", "titel": "typo"}`},
		{"second document", "/v1/verify/claim", `{"text": "In x, the a for b was c."} {"text": "again"}`},
		{"trailing garbage", "/v1/ingest/triple", `{"subject": "a", "predicate": "b", "object": "c"} true`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestVerifyBatchEndpoint exercises POST /v1/verify/batch: mixed claim and
// tuple items come back in order under one admission slot.
func TestVerifyBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(2)
	req := VerifyBatchRequest{Items: []VerifyBatchItem{
		{Type: "claim", ID: "b0", Text: workload.GolfClaim().Text},
		{Type: "tuple", ID: "b1", Caption: tp.Caption, Columns: tp.Columns,
			Values: []string{tp.Values[0], "dave hobson", tp.Values[2]}, Attr: "incumbent", Kinds: []string{"tuple"}},
		{Type: "claim", ID: "b2", Text: workload.GolfClaim().Text},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/verify/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var br VerifyBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Status != "verified" || br.Verified != 3 || br.Failed != 0 {
		t.Fatalf("batch response = %+v", br)
	}
	for i, want := range []struct{ id, verdict string }{
		{"b0", "Refuted"}, {"b1", "Refuted"}, {"b2", "Refuted"},
	} {
		res := br.Results[i]
		if res.Report == nil || res.Report.ID != want.id || res.Report.Verdict != want.verdict {
			t.Errorf("item %d = %+v, want id %s verdict %s", i, res, want.id, want.verdict)
		}
	}

	// Item validation failures reject the whole batch, naming the item.
	resp, body = postJSON(t, ts.URL+"/v1/verify/batch", VerifyBatchRequest{Items: []VerifyBatchItem{
		{Type: "claim", Text: workload.GolfClaim().Text},
		{Type: "hologram"},
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "item 1") {
		t.Fatalf("bad item: status %d body %s", resp.StatusCode, body)
	}

	// Empty batches are rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/verify/batch", VerifyBatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
}

// TestVerifyBatchAmortizesAdmission proves one admitted batch of many
// items coexists with a saturated limiter: with concurrency 1, a batch of
// 4 items holds a single slot (a per-item design would deadlock or reject
// its own items).
func TestVerifyBatchAmortizesAdmission(t *testing.T) {
	ts := newGatedServer(t, verify.NewExactVerifier(), WithVerifyConcurrency(1))
	items := make([]VerifyBatchItem, 4)
	for i := range items {
		items[i] = VerifyBatchItem{Type: "claim", ID: fmt.Sprintf("amortize-%d", i), Text: workload.GolfClaim().Text}
	}
	resp, body := postJSON(t, ts.URL+"/v1/verify/batch", VerifyBatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var br VerifyBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Verified != 4 {
		t.Fatalf("batch response = %+v", br)
	}
}

// TestVerifyBatchRunsItemsInTurn: a batch verifies its items one after
// another, in request order, inside its one admission slot. With
// concurrency 1 and every verification held at a gate, at most one
// verifier call is ever in flight, the calls arrive in item order, and a
// single-claim request that arrives while the batch runs answers 429.
func TestVerifyBatchRunsItemsInTurn(t *testing.T) {
	gate := &gateVerifier{started: make(chan struct{}, 1), release: make(chan struct{})}
	ts := newGatedServer(t, gate, WithVerifyConcurrency(1))
	items := make([]VerifyBatchItem, 16)
	ids := make([]string, len(items))
	for i := range items {
		ids[i] = fmt.Sprintf("turn-%02d", i)
		items[i] = VerifyBatchItem{Type: "claim", ID: ids[i], Text: workload.GolfClaim().Text}
	}
	batchStatus := make(chan int, 1)
	go func() {
		st, _ := postJSONErr(ts.URL+"/v1/verify/batch", VerifyBatchRequest{Items: items})
		batchStatus <- st
	}()
	<-gate.started // the batch holds the slot, inside its first item

	resp, body := postJSON(t, ts.URL+"/v1/verify/claim", golfClaimBody("single"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("single claim during the batch: status %d (%s), want 429", resp.StatusCode, body)
	}
	// Give items that ran beside the first one time to reach the gate.
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	if st := <-batchStatus; st != http.StatusOK {
		t.Fatalf("batch status = %d", st)
	}

	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.maxInFlight != 1 {
		t.Errorf("%d verifier calls in flight at once, want 1", gate.maxInFlight)
	}
	var order []string // the calls' objects, one entry per run of calls
	for _, id := range gate.ids {
		if len(order) == 0 || order[len(order)-1] != id {
			order = append(order, id)
		}
	}
	if !slices.Equal(order, ids) {
		t.Errorf("verifier calls arrived for %v, want %v", order, ids)
	}
}

// TestVerifyBatchDeadline: a batch whose server-side deadline expires
// partway keeps the reports of the items that finished, and every later
// item carries the deadline error; a batch cut off in its first item
// answers 504, as a single verification does.
func TestVerifyBatchDeadline(t *testing.T) {
	const timeout = 250 * time.Millisecond
	ts := newGatedServer(t, &slowVerifier{delay: 2 * timeout, prefix: "slow"}, WithVerifyTimeout(timeout))
	batch := func(ids ...string) VerifyBatchRequest {
		var req VerifyBatchRequest
		for _, id := range ids {
			req.Items = append(req.Items, VerifyBatchItem{Type: "claim", ID: id, Text: workload.GolfClaim().Text})
		}
		return req
	}

	resp, body := postJSON(t, ts.URL+"/v1/verify/batch", batch("fast-0", "fast-1", "slow-2", "fast-3", "fast-4"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var br VerifyBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Status != "partial" || br.Verified != 2 || br.Failed != 3 || len(br.Results) != 5 {
		t.Fatalf("batch response = %+v", br)
	}
	for i, res := range br.Results {
		if i < 2 {
			if res.Report == nil || res.Error != "" {
				t.Errorf("item %d finished before the deadline: %+v", i, res)
			}
		} else if res.Report != nil || !strings.Contains(res.Error, "deadline exceeded") {
			t.Errorf("item %d after the deadline: %+v, want the deadline error", i, res)
		}
	}

	resp, body = postJSON(t, ts.URL+"/v1/verify/batch", batch("slow-0", "fast-1"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("wholly cut-off batch: status %d (%s), want 504", resp.StatusCode, body)
	}
}
