// Package server exposes a VerifAI pipeline as an HTTP JSON API, the
// deployment surface a downstream user would put in front of the library:
//
//	POST /v1/verify/claim     {"id": "...", "text": "In <caption>, ...", "kinds": ["table","text"]}
//	POST /v1/verify/tuple     {"id": "...", "caption": "...", "columns": [...], "values": [...], "attr": "..."}
//	POST /v1/verify/batch     {"items": [{"type": "claim"|"tuple", ...}, ...]}
//	POST /v1/ingest/table     {"id": "...", "caption": "...", "columns": [...], "rows": [[...]], "source_id": "..."}
//	POST /v1/ingest/document  {"id": "...", "title": "...", "text": "...", "source_id": "..."}
//	POST /v1/ingest/triple    {"subject": "...", "predicate": "...", "object": "...", "source_id": "..."}
//	POST /v1/ingest/batch     {"items": [{"type": "table"|"document"|"triple", ...}, ...]}
//	POST /v1/admin/checkpoint durable checkpoint (404 on in-memory
//	                          deployments, 409 when one is already running);
//	                          non-blocking: ingestion stalls only for the
//	                          short fork phase, not the snapshot write
//	GET  /v1/snapshots        retained time-travel snapshots + floor
//	POST /v1/snapshots        {"action":"pin"} freezes and pins head;
//	                          {"action":"unpin","version":N} releases it
//	                          (verify endpoints accept ?version=N to read
//	                          at a retained snapshot: 400 malformed, 404
//	                          ahead of the lake, 409 not retained, 410
//	                          below the retention floor with the floor in
//	                          the body)
//	GET  /v1/changes          cursor-resumable change feed (CDC + follower
//	                          replication): ?from=N resumes, binary WAL
//	                          frames by default, ?format=sse for SSE,
//	                          410 below the checkpoint floor
//	GET  /v1/replica/checkpoint  latest checkpoint as a tar for follower
//	                          bootstrap (404 before the first checkpoint)
//	GET  /v1/lake/version     current monotonic lake version
//	GET  /v1/stats            lake statistics, index residency (+ durability posture when durable)
//	GET  /v1/provenance?seq=N one lineage record
//	GET  /v1/healthz          liveness (503 "read_only" while the WAL refuses writes)
//
// The lake behind the pipeline is live: the ingest endpoints index new
// instances incrementally, so the server keeps serving verification reads
// during writes. Responses are flat JSON documents (no internal types
// leak). Every error body is {"error": "...", "request_id": "..."}, plus
// "floor" on a 410 and "leader" on a 421, with conventional status codes
// (405 for a method the route does not take, 409 for duplicate ingest IDs,
// 413 for oversized bodies, 429 when the verify admission limiter is
// saturated, 503 for writes after the system began shutting down or while
// the write-ahead log refuses them, 504 for verifications exceeding the
// per-request deadline).
//
// The verify endpoints are admission-controlled: at most a configured
// number of verifications run concurrently (WithVerifyConcurrency /
// -verify-concurrency); a request finding the limiter saturated is
// rejected immediately with 429 and a Retry-After hint instead of queueing
// unboundedly. POST /v1/verify/batch amortizes one admission slot across
// many claims, verified in turn inside it, so the limiter bounds running
// verifications exactly. No handler starts a goroutine: a request is the
// unit of parallelism. Each admitted verification runs under the
// request's context (plus an optional server-side deadline), so a
// disconnected client stops burning CPU mid-flight; the items of a batch
// the deadline cuts off carry its error.
//
// Replication-aware serving: the verify endpoints accept ?min_version=N —
// a read-your-writes token carrying an earlier ingest's acknowledged
// version — and wait for the node to apply N before verifying (504 when it
// cannot catch up in time; see changes.go). On a follower (WithFollower)
// the ingest endpoints answer 421 Misdirected Request naming the leader.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cdc"
	"repro/internal/claims"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/durable"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/table"
	"repro/internal/verify"
	"repro/internal/wal"
)

// Request-body size caps. Verify and single-item ingest bodies are small
// JSON documents; the batch endpoints carry many items and get room to
// match their item caps. Oversized bodies answer 413.
const (
	maxBodyBytes      = 1 << 20  // 1 MiB: verify + single-item ingest
	maxBatchBodyBytes = 64 << 20 // 64 MiB: /v1/ingest/batch and /v1/verify/batch
)

// statusClientClosedRequest reports a verification aborted because the
// client went away (nginx's 499 convention); the client never sees it, but
// it keeps access logs honest.
const statusClientClosedRequest = 499

// Server handles the HTTP API over one pipeline.
type Server struct {
	pipeline *core.Pipeline
	mux      *http.ServeMux
	// durStats / checkpoint are set by WithDurability on durable
	// deployments; nil otherwise.
	durStats   func() durable.Stats
	checkpoint func() (uint64, error)
	// pinSnapshot / unpinSnapshot back POST /v1/snapshots. WithSnapshots
	// overrides them (the durable deployment's persisting versions); the
	// defaults pin in memory through the pipeline's registry.
	pinSnapshot   func() (uint64, error)
	unpinSnapshot func(version uint64) error

	// verifySem is the verify admission limiter (nil = unlimited); a slot
	// is held for the duration of one verification (or one whole batch).
	verifySem     chan struct{}
	verifyLimit   int
	verifyTimeout time.Duration
	rejected      atomic.Uint64

	// changeFeed is set by WithChangeFeed and backs GET /v1/changes and
	// GET /v1/replica/checkpoint; nil on deployments without a WAL.
	changeFeed *ChangeFeedConfig
	// leaderURL is set by WithFollower: non-empty marks this server a
	// read-only replica, and ingest endpoints answer 421 pointing here.
	leaderURL string
	// replStats is set by WithReplication and feeds GET /v1/stats.
	replStats func() any

	// obs is the metrics registry behind GET /metrics (set by WithObs to
	// share the system's registry; New creates a private one otherwise, so
	// /metrics always serves). logger receives one structured line per
	// request (default: discard).
	obs    *obs.Registry
	logger *slog.Logger
	// Pre-resolved metric handles for the middleware and the change feed.
	httpReqs   *obs.CounterVec
	httpDur    *obs.HistogramVec
	cdcRecords *obs.Counter
	cdcActive  *obs.Gauge
}

// Option configures a Server.
type Option func(*Server)

// WithDurability wires a durable deployment's surfaces in: stats feeds the
// durability section of GET /v1/stats, checkpoint backs
// POST /v1/admin/checkpoint.
func WithDurability(stats func() durable.Stats, checkpoint func() (uint64, error)) Option {
	return func(s *Server) {
		s.durStats = stats
		s.checkpoint = checkpoint
	}
}

// WithSnapshots overrides how POST /v1/snapshots pins and unpins — durable
// deployments pass the System methods so pins persist across restarts;
// without it pins live in memory only.
func WithSnapshots(pin func() (uint64, error), unpin func(version uint64) error) Option {
	return func(s *Server) {
		s.pinSnapshot = pin
		s.unpinSnapshot = unpin
	}
}

// WithVerifyConcurrency bounds concurrently admitted verify requests
// (default 4×GOMAXPROCS). Requests beyond the bound answer 429 with a
// Retry-After hint. n <= 0 disables admission control.
func WithVerifyConcurrency(n int) Option {
	return func(s *Server) { s.verifyLimit = n }
}

// WithVerifyTimeout caps each admitted verification's runtime on top of
// the client's own cancellation (default 0: only the request context
// bounds it). Expiry aborts the pipeline mid-flight and answers 504.
func WithVerifyTimeout(d time.Duration) Option {
	return func(s *Server) { s.verifyTimeout = d }
}

// WithObs serves GET /metrics from the given registry instead of a private
// one — pass the system's registry so pipeline, lake, WAL, and HTTP
// metrics share one exposition.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.obs = reg }
}

// WithLogger emits one structured log line per request (method, route,
// status, latency, request ID, lake version) to the given logger. Default:
// discard.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// New returns a server over the given pipeline.
func New(p *core.Pipeline, opts ...Option) *Server {
	s := &Server{pipeline: p, mux: http.NewServeMux(), verifyLimit: 4 * runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(s)
	}
	if s.verifyLimit > 0 {
		s.verifySem = make(chan struct{}, s.verifyLimit)
	}
	if s.pinSnapshot == nil {
		s.pinSnapshot = func() (uint64, error) {
			snap, err := p.PinSnapshot(nil)
			if err != nil {
				return 0, err
			}
			return snap.Version(), nil
		}
	}
	if s.unpinSnapshot == nil {
		s.unpinSnapshot = p.Snapshots().Unpin
	}
	// The route table: each route's methods, gated in one place (allow).
	// /v1/healthz names none and answers every method.
	const get, post = http.MethodGet, http.MethodPost
	for _, rt := range []struct {
		pattern string
		methods []string
		handle  http.HandlerFunc
	}{
		{"/v1/verify/claim", []string{post}, verifyOne(s, buildClaimObject)},
		{"/v1/verify/tuple", []string{post}, verifyOne(s, buildTupleObject)},
		{"/v1/verify/batch", []string{post}, s.handleVerifyBatch},
		{"/v1/ingest/table", []string{post}, s.handleIngestTable},
		{"/v1/ingest/document", []string{post}, s.handleIngestDocument},
		{"/v1/ingest/triple", []string{post}, s.handleIngestTriple},
		{"/v1/ingest/batch", []string{post}, s.handleIngestBatch},
		{"/v1/admin/checkpoint", []string{post}, s.handleCheckpoint},
		{"/v1/snapshots", []string{get, post}, s.handleSnapshots},
		{cdc.ChangesPath, []string{get}, s.handleChanges},
		{cdc.CheckpointPath, []string{get}, s.handleReplicaCheckpoint},
		{"/v1/lake/version", []string{get}, s.handleLakeVersion},
		{"/v1/stats", []string{get}, s.handleStats},
		{"/v1/provenance", []string{get}, s.handleProvenance},
		{"/v1/healthz", nil, s.handleHealthz},
		{"/metrics", []string{get}, s.handleMetrics},
	} {
		s.mux.HandleFunc(rt.pattern, allow(rt.methods, rt.handle))
	}
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.httpReqs = s.obs.CounterVec("verifai_http_requests_total",
		"HTTP requests served, by mux route and response status.", "route", "status")
	s.httpDur = s.obs.HistogramVec("verifai_http_request_duration_seconds",
		"HTTP request latency by mux route.", "route")
	s.cdcRecords = s.obs.Counter("verifai_cdc_stream_records_total",
		"Change-feed records shipped to subscribers (heartbeats excluded).")
	s.cdcActive = s.obs.Gauge("verifai_cdc_streams_active",
		"Currently connected change-feed streams.")
	s.obs.CounterFunc("verifai_verify_rejected_total",
		"Verify requests rejected by the admission limiter (429).", s.rejected.Load)
	s.obs.GaugeFunc("verifai_verify_in_flight",
		"Verifications currently holding an admission slot.", func() float64 {
			return float64(len(s.verifySem))
		})
	memory := s.obs.GaugeVec("verifai_memory_bytes",
		"Where the process's memory sits, by class: the Go heap and runtime (runtime/metrics), off-heap provenance, catalog and index bytes, file-backed pages, the accounted sum of the resident classes, and VmRSS, RssAnon and RssFile on Linux.", "class")
	s.obs.OnCollect(func() {
		for class, n := range s.memoryLedger() {
			memory.With(class).Set(float64(n))
		}
	})
	registerCPUMetrics(s.obs)
	return s
}

// Metrics returns the server's registry (its own unless WithObs shared
// one), for tests and side listeners.
func (s *Server) Metrics() *obs.Registry { return s.obs }

// allow gates a route on its methods: any other method answers 405 with
// "<methods> required". No methods lets every method through.
func allow(methods []string, h http.HandlerFunc) http.HandlerFunc {
	if len(methods) == 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			writeError(w, http.StatusMethodNotAllowed, "%s required", strings.Join(methods, " or "))
			return
		}
		h(w, r)
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeExposition)
	_ = s.obs.WritePrometheus(w)
}

// --- request / response DTOs ---

// ClaimRequest is the body of POST /v1/verify/claim.
type ClaimRequest struct {
	// ID stably identifies the generated object (optional; defaults to a
	// server-assigned value).
	ID string `json:"id"`
	// Text is the claim in the template language (required).
	Text string `json:"text"`
	// Kinds restricts evidence modalities ("table", "tuple", "text",
	// "entity"); defaults to tables.
	Kinds []string `json:"kinds,omitempty"`
}

// TupleRequest is the body of POST /v1/verify/tuple.
type TupleRequest struct {
	ID      string   `json:"id"`
	Caption string   `json:"caption"`
	Columns []string `json:"columns"`
	Values  []string `json:"values"`
	// Attr is the attribute under verification (required).
	Attr string `json:"attr"`
	// Kinds restricts evidence modalities; defaults to tuples and texts.
	Kinds []string `json:"kinds,omitempty"`
}

// EvidenceResponse is one verified evidence instance.
type EvidenceResponse struct {
	InstanceID  string  `json:"instance_id"`
	Kind        string  `json:"kind"`
	SourceID    string  `json:"source_id"`
	Verdict     string  `json:"verdict"`
	Explanation string  `json:"explanation"`
	Verifier    string  `json:"verifier"`
	SourceTrust float64 `json:"source_trust"`
	RerankScore float64 `json:"rerank_score"`
}

// VerifyResponse is the outcome of a verification request.
type VerifyResponse struct {
	ID            string             `json:"id"`
	Verdict       string             `json:"verdict"`
	Confidence    float64            `json:"confidence"`
	Evidence      []EvidenceResponse `json:"evidence"`
	ProvenanceSeq int                `json:"provenance_seq"`
	// AsOfVersion is the retained snapshot the verdict was computed against
	// when the request carried ?version=; omitted for head reads.
	AsOfVersion uint64 `json:"as_of_version,omitempty"`
}

// IngestTableRequest is the body of POST /v1/ingest/table.
type IngestTableRequest struct {
	ID       string     `json:"id"`
	Caption  string     `json:"caption"`
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	SourceID string     `json:"source_id"`
}

// IngestDocumentRequest is the body of POST /v1/ingest/document.
type IngestDocumentRequest struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Text     string `json:"text"`
	SourceID string `json:"source_id"`
}

// IngestTripleRequest is the body of POST /v1/ingest/triple.
type IngestTripleRequest struct {
	Subject   string `json:"subject"`
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
	SourceID  string `json:"source_id"`
}

// IngestResponse acknowledges one accepted ingestion.
type IngestResponse struct {
	// Status is always "ingested" on success.
	Status string `json:"status"`
	// Version is the lake version the mutation committed as; once a reader
	// observes GET /v1/lake/version >= Version, the instance is indexed.
	Version uint64 `json:"version"`
}

// IngestBatchItem is one mutation in POST /v1/ingest/batch. Type selects
// the modality ("table", "document", or "triple") and which of the
// remaining fields apply (the same fields as the per-modality endpoints).
type IngestBatchItem struct {
	Type string `json:"type"`
	// Table fields.
	ID      string     `json:"id,omitempty"`
	Caption string     `json:"caption,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Document fields (ID shared with tables).
	Title string `json:"title,omitempty"`
	Text  string `json:"text,omitempty"`
	// Triple fields.
	Subject   string `json:"subject,omitempty"`
	Predicate string `json:"predicate,omitempty"`
	Object    string `json:"object,omitempty"`
	// SourceID applies to every modality.
	SourceID string `json:"source_id,omitempty"`
}

// maxBatchItems caps one batch request: AddBatch materializes every item's
// prepared payload (embeddings, term lists) before committing, so the cap
// bounds per-request memory. Larger loads split into multiple batches.
const maxBatchItems = 1024

// IngestBatchRequest is the body of POST /v1/ingest/batch.
type IngestBatchRequest struct {
	Items []IngestBatchItem `json:"items"`
}

// IngestBatchItemResult is one item's outcome in an IngestBatchResponse.
type IngestBatchItemResult struct {
	// Version is the lake version the item committed as; 0 means the item
	// never committed (e.g. a duplicate ID). An item with both a version
	// and an error committed to the catalog but failed indexing — do not
	// retry it under the same ID.
	Version uint64 `json:"version,omitempty"`
	// Error explains a rejected or unindexed item.
	Error string `json:"error,omitempty"`
}

// IngestBatchResponse summarizes a batch ingestion. The batch is applied
// when the response arrives: every item with a version is retrievable.
type IngestBatchResponse struct {
	// Status is "ingested" when every item committed, "partial" when some
	// did, "failed" when none did.
	Status string `json:"status"`
	// Ingested and Failed count the items.
	Ingested int `json:"ingested"`
	Failed   int `json:"failed"`
	// Version is the highest lake version the batch committed (0 when
	// nothing committed).
	Version uint64 `json:"version"`
	// Results reports per-item outcomes in request order.
	Results []IngestBatchItemResult `json:"results"`
}

// --- request plumbing ---

// decodeStrict reads one JSON document into dst with the endpoint's body
// cap applied: bodies over limit answer 413, unknown fields (client typos
// like "kind" for "kinds") and trailing garbage (a second JSON document)
// answer 400 — loudly, instead of silently dropping the client's intent.
// On any failure the response is already written and false returned.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	trailing := err == nil
	if trailing {
		// Anything after the document fails it. The cap can also trip here
		// (a valid document padded past the limit): still a size problem,
		// not a framing one.
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return true
		}
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
	case trailing:
		writeError(w, http.StatusBadRequest, "request body must be a single JSON document")
	default:
		writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
	}
	return false
}

// admitVerify runs a verify request's way in, in order: the ?min_version=
// freshness barrier (before admission, so a waiting request holds no
// slot), then one admission slot (429 + Retry-After when the limiter is
// saturated), then the context the verification runs under: the request's
// own (client disconnect cancels it) plus the server-side deadline when
// configured. On ok=false the response is already written; otherwise the
// caller must invoke done exactly once, after the verification finishes.
func (s *Server) admitVerify(w http.ResponseWriter, r *http.Request) (ctx context.Context, done func(), ok bool) {
	if !s.waitMinVersion(w, r) {
		return nil, nil, false
	}
	release := func() {}
	if s.verifySem != nil {
		select {
		case s.verifySem <- struct{}{}:
			release = func() { <-s.verifySem }
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"verify concurrency limit (%d) saturated; retry shortly", s.verifyLimit)
			return nil, nil, false
		}
	}
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if s.verifyTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.verifyTimeout)
	}
	return ctx, func() { cancel(); release() }, true
}

// writeVerifyError maps a pipeline verification error onto a status: the
// server-side deadline expiring is 504 (the verification was cut off, not
// broken), a client disconnect is logged as 499 (nginx convention; the
// client is gone), anything else is a real 500.
func writeVerifyError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "verify: deadline exceeded")
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		writeError(w, statusClientClosedRequest, "verify: client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "verify: %v", err)
	}
}

// --- handlers ---

// verifyOne is a single-object verify endpoint over request type R: a
// strict decode, build (R validated into g and its evidence kinds), the
// ?version= parse, admitVerify, the verification, and its error mapping.
func verifyOne[R any](s *Server, build func(R) (verify.Generated, []datalake.Kind, *reqError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeStrict(w, r, maxBodyBytes, &req) {
			return
		}
		g, kinds, rerr := build(req)
		if rerr != nil {
			writeError(w, rerr.status, "%v", rerr)
			return
		}
		asOf, ok := parseVersionParam(w, r)
		if !ok {
			return
		}
		ctx, done, ok := s.admitVerify(w, r)
		if !ok {
			return
		}
		defer done()
		resp, err := s.verifyObject(ctx, g, asOf, kinds)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, resp)
		case snapshotResolveError(err):
			s.writeSnapshotError(w, asOf, err)
		default:
			writeVerifyError(w, r, err)
		}
	}
}

// verifyObject is the one pipeline call behind every verify endpoint (the
// batch handler runs it per item), flattened into the wire format. A
// context that has already ended fails it before the result cache is
// asked, so the items a batch's deadline cut off carry the deadline error.
func (s *Server) verifyObject(ctx context.Context, g verify.Generated, asOf uint64, kinds []datalake.Kind) (VerifyResponse, error) {
	if err := ctx.Err(); err != nil {
		return VerifyResponse{}, err
	}
	report, err := s.pipeline.VerifyAsOfCtx(ctx, g, asOf, kinds...)
	if err != nil {
		return VerifyResponse{}, err
	}
	return toResponse(g.ID, report), nil
}

// reqError pairs a request-validation failure with its response status, so
// the single-item handlers and the batch handler share validation without
// re-deriving status codes.
type reqError struct {
	status int
	msg    string
}

func (e *reqError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *reqError {
	return &reqError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// buildClaimObject validates a ClaimRequest into a generated object and its
// evidence kinds.
func buildClaimObject(req ClaimRequest) (verify.Generated, []datalake.Kind, *reqError) {
	if req.Text == "" {
		return verify.Generated{}, nil, badRequest("text is required")
	}
	c, err := claims.Parse(req.Text)
	if err != nil {
		return verify.Generated{}, nil, &reqError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("unparseable claim: %v", err)}
	}
	kinds, err := parseKinds(req.Kinds, []datalake.Kind{datalake.KindTable})
	if err != nil {
		return verify.Generated{}, nil, badRequest("%v", err)
	}
	if req.ID == "" {
		req.ID = "http-claim"
	}
	return verify.NewClaimObject(req.ID, c), kinds, nil
}

// buildTupleObject validates a TupleRequest into a generated object and its
// evidence kinds.
func buildTupleObject(req TupleRequest) (verify.Generated, []datalake.Kind, *reqError) {
	if len(req.Columns) == 0 || len(req.Columns) != len(req.Values) {
		return verify.Generated{}, nil, badRequest("columns and values must be non-empty and of equal length")
	}
	if req.Attr == "" {
		return verify.Generated{}, nil, badRequest("attr is required")
	}
	tp := table.Tuple{Caption: req.Caption, Columns: req.Columns, Values: req.Values}
	if _, ok := tp.Value(req.Attr); !ok {
		return verify.Generated{}, nil, badRequest("tuple has no attribute %q", req.Attr)
	}
	kinds, err := parseKinds(req.Kinds, []datalake.Kind{datalake.KindTuple, datalake.KindText})
	if err != nil {
		return verify.Generated{}, nil, badRequest("%v", err)
	}
	if req.ID == "" {
		req.ID = "http-tuple"
	}
	return verify.NewTupleObject(req.ID, tp, req.Attr), kinds, nil
}

// maxVerifyBatchItems caps one verify batch; each item is a full
// verification, so the cap bounds the work one admission slot can claim.
const maxVerifyBatchItems = 256

// VerifyBatchItem is one object in POST /v1/verify/batch. Type selects the
// task ("claim" or "tuple") and which of the remaining fields apply (the
// same fields as the single-object endpoints).
type VerifyBatchItem struct {
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`
	// Claim fields.
	Text string `json:"text,omitempty"`
	// Tuple fields.
	Caption string   `json:"caption,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Values  []string `json:"values,omitempty"`
	Attr    string   `json:"attr,omitempty"`
	// Kinds restricts evidence modalities per item; defaults per type.
	Kinds []string `json:"kinds,omitempty"`
}

// VerifyBatchRequest is the body of POST /v1/verify/batch.
type VerifyBatchRequest struct {
	Items []VerifyBatchItem `json:"items"`
}

// VerifyBatchItemResult is one item's outcome: either a report or an error.
type VerifyBatchItemResult struct {
	Report *VerifyResponse `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// VerifyBatchResponse summarizes a batch verification in request order.
type VerifyBatchResponse struct {
	// Status is "verified" when every item produced a report, "partial"
	// when some did, "failed" when none did.
	Status string `json:"status"`
	// Verified and Failed count the items.
	Verified int `json:"verified"`
	Failed   int `json:"failed"`
	// Results reports per-item outcomes in request order.
	Results []VerifyBatchItemResult `json:"results"`
}

// handleVerifyBatch verifies many objects in turn under ONE admission slot
// — the amortization that lets a bulk consumer coexist with interactive
// traffic instead of saturating the limiter with per-claim requests. Item
// validation failures reject the whole request (400, first bad item named)
// before any work runs; verification errors after admission are per-item.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var req VerifyBatchRequest
	if !decodeStrict(w, r, maxBatchBodyBytes, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "items must be non-empty")
		return
	}
	if len(req.Items) > maxVerifyBatchItems {
		writeError(w, http.StatusBadRequest, "batch exceeds %d items; split it", maxVerifyBatchItems)
		return
	}
	objects := make([]verify.Generated, len(req.Items))
	itemKinds := make([][]datalake.Kind, len(req.Items))
	for i, it := range req.Items {
		var rerr *reqError
		switch it.Type {
		case "claim":
			objects[i], itemKinds[i], rerr = buildClaimObject(ClaimRequest{ID: it.ID, Text: it.Text, Kinds: it.Kinds})
		case "tuple":
			objects[i], itemKinds[i], rerr = buildTupleObject(TupleRequest{
				ID: it.ID, Caption: it.Caption, Columns: it.Columns, Values: it.Values,
				Attr: it.Attr, Kinds: it.Kinds,
			})
		default:
			rerr = badRequest("unknown type %q (want claim|tuple)", it.Type)
		}
		if rerr != nil {
			writeError(w, rerr.status, "item %d: %v", i, rerr)
			return
		}
	}

	asOf, ok := parseVersionParam(w, r)
	if !ok {
		return
	}
	if asOf != 0 {
		// Resolve the pin once, before admission: an unretained version
		// fails the whole batch fast instead of 256 identical item errors.
		snap, err := s.pipeline.Snapshots().Acquire(asOf)
		if err != nil {
			s.writeSnapshotError(w, asOf, err)
			return
		}
		snap.Release()
	}
	ctx, done, ok := s.admitVerify(w, r)
	if !ok {
		return
	}
	defer done()

	// The items run in turn, in request order, so the batch's one slot is
	// one running verification.
	resp := VerifyBatchResponse{Results: make([]VerifyBatchItemResult, len(req.Items))}
	for i, g := range objects {
		if vr, err := s.verifyObject(ctx, g, asOf, itemKinds[i]); err != nil {
			resp.Results[i].Error = err.Error()
			resp.Failed++
		} else {
			resp.Results[i].Report = &vr
			resp.Verified++
		}
	}
	switch {
	case resp.Failed == 0:
		resp.Status = "verified"
	case resp.Verified > 0:
		resp.Status = "partial"
	default:
		resp.Status = "failed"
		// A wholly failed batch surfaces the cause through the status code
		// like the single-object endpoints (e.g. every item cut off by the
		// deadline).
		if ctx.Err() != nil {
			writeVerifyError(w, r, ctx.Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildTable, buildDocument, and buildTriple validate and construct the
// lake values for the ingest endpoints; the single-item handlers and the
// batch handler share them so their validation rules cannot diverge.
func buildTable(id, caption string, columns []string, rows [][]string, sourceID string) (*table.Table, error) {
	if id == "" {
		return nil, fmt.Errorf("id is required")
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("columns must be non-empty")
	}
	t := table.New(id, caption, columns)
	t.SourceID = sourceID
	for i, row := range rows {
		if err := t.AppendRow(row); err != nil {
			return nil, fmt.Errorf("row %d: %v", i, err)
		}
	}
	return t, nil
}

func buildDocument(id, title, text, sourceID string) (*doc.Document, error) {
	if id == "" {
		return nil, fmt.Errorf("id is required")
	}
	if text == "" {
		return nil, fmt.Errorf("text is required")
	}
	return &doc.Document{ID: id, Title: title, Text: text, SourceID: sourceID}, nil
}

func buildTriple(subject, predicate, object, sourceID string) (*kg.Triple, error) {
	if subject == "" || predicate == "" || object == "" {
		return nil, fmt.Errorf("subject, predicate, and object are required")
	}
	return &kg.Triple{Subject: subject, Predicate: predicate, Object: object, SourceID: sourceID}, nil
}

func (s *Server) handleIngestTable(w http.ResponseWriter, r *http.Request) {
	var req IngestTableRequest
	s.ingestOne(w, r, &req, func() (item datalake.BatchItem, err error) {
		item.Table, err = buildTable(req.ID, req.Caption, req.Columns, req.Rows, req.SourceID)
		return item, err
	})
}

func (s *Server) handleIngestDocument(w http.ResponseWriter, r *http.Request) {
	var req IngestDocumentRequest
	s.ingestOne(w, r, &req, func() (item datalake.BatchItem, err error) {
		item.Doc, err = buildDocument(req.ID, req.Title, req.Text, req.SourceID)
		return item, err
	})
}

func (s *Server) handleIngestTriple(w http.ResponseWriter, r *http.Request) {
	var req IngestTripleRequest
	s.ingestOne(w, r, &req, func() (item datalake.BatchItem, err error) {
		item.Triple, err = buildTriple(req.Subject, req.Predicate, req.Object, req.SourceID)
		return item, err
	})
}

// ingestOne serves a single-item ingest endpoint: the follower gate, a
// strict decode into req, build (req validated into a lake item;
// its error answers 400), then the write. The write waits for the
// mutation's incremental indexing (the pipelined apply stage) before
// returning, so a 200 response means the instance is already retrievable.
// Write errors answer with ingestStatus.
func (s *Server) ingestOne(w http.ResponseWriter, r *http.Request, req any, build func() (datalake.BatchItem, error)) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if !decodeStrict(w, r, maxBodyBytes, req) {
		return
	}
	item, err := build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	results, err := s.pipeline.Lake().AddBatch([]datalake.BatchItem{item})
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		writeError(w, ingestStatus(err), "ingest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Status: "ingested", Version: results[0].Version})
}

// ingestStatus maps an ingest error to its HTTP status: a duplicate ID is
// a client conflict (409); a closed lake — the system is shutting down —
// and a read-only WAL — it refuses writes since an fsync failed — are 503
// so load balancers retry elsewhere; anything else is 500.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, datalake.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, datalake.ErrClosed), errors.Is(err, wal.ErrReadOnly):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req IngestBatchRequest
	if !decodeStrict(w, r, maxBatchBodyBytes, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "items must be non-empty")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, "batch exceeds %d items; split it", maxBatchItems)
		return
	}
	items := make([]datalake.BatchItem, len(req.Items))
	for i, it := range req.Items {
		var err error
		switch it.Type {
		case "table":
			items[i].Table, err = buildTable(it.ID, it.Caption, it.Columns, it.Rows, it.SourceID)
		case "document":
			items[i].Doc, err = buildDocument(it.ID, it.Title, it.Text, it.SourceID)
		case "triple":
			items[i].Triple, err = buildTriple(it.Subject, it.Predicate, it.Object, it.SourceID)
		default:
			err = fmt.Errorf("unknown type %q (want table|document|triple)", it.Type)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "item %d: %v", i, err)
			return
		}
	}
	results, err := s.pipeline.Lake().AddBatch(items)
	if err != nil {
		writeError(w, ingestStatus(err), "ingest batch: %v", err)
		return
	}
	resp := IngestBatchResponse{Results: make([]IngestBatchItemResult, len(results))}
	var failErr error // the first error that is not a duplicate, else a duplicate
	for i, res := range results {
		// Report the version even alongside an error: a committed item
		// whose indexing failed must not look like a rejected one.
		resp.Results[i].Version = res.Version
		if res.Version > resp.Version {
			resp.Version = res.Version
		}
		if res.Err != nil {
			resp.Failed++
			resp.Results[i].Error = res.Err.Error()
			if failErr == nil || errors.Is(failErr, datalake.ErrDuplicate) {
				failErr = res.Err
			}
			continue
		}
		resp.Ingested++
	}
	// Wholly failed batches signal through the status code like the
	// single-item endpoints (409 when it's all duplicates, 503 when the
	// WAL refused them), so clients keying on HTTP status don't mistake
	// total rejection for success.
	code := http.StatusOK
	switch {
	case resp.Failed == 0:
		resp.Status = "ingested"
	case resp.Ingested > 0:
		resp.Status = "partial"
	default:
		resp.Status = "failed"
		code = ingestStatus(failErr)
	}
	writeJSON(w, code, resp)
}

// CheckpointResponse acknowledges POST /v1/admin/checkpoint.
type CheckpointResponse struct {
	Status string `json:"status"`
	// Version is the lake version the checkpoint captured.
	Version uint64 `json:"version"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.checkpoint == nil {
		writeError(w, http.StatusNotFound, "this deployment has no data directory (run serve with -data-dir)")
		return
	}
	version, err := s.checkpoint()
	if err != nil {
		// Checkpoints overlap ingestion but not each other: a request that
		// finds one already running conflicts (409) rather than failing —
		// the in-flight checkpoint covers the caller's intent.
		status := http.StatusInternalServerError
		if errors.Is(err, durable.ErrCheckpointInFlight) {
			status = http.StatusConflict
		}
		writeError(w, status, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Status: "checkpointed", Version: version})
}

func (s *Server) handleLakeVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]uint64{"version": s.pipeline.Lake().Version()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.pipeline.Lake().Stats()
	body := map[string]any{
		"tables":   stats.Tables,
		"tuples":   stats.Tuples,
		"texts":    stats.Docs,
		"triples":  stats.Triples,
		"entities": stats.Entities,
		"sources":  stats.Sources,
		"serving": map[string]any{
			"pipeline":           s.pipeline.Stats(),
			"verify_concurrency": s.verifyLimit,
			"verify_in_flight":   len(s.verifySem),
			"verify_rejected":    s.rejected.Load(),
		},
		"snapshots": map[string]any{
			"retained": len(s.pipeline.Snapshots().List()),
			"floor":    s.pipeline.Snapshots().Floor(),
			"latest":   s.pipeline.Snapshots().Latest(),
			"rebuilt":  s.pipeline.SnapshotRebuilds(),
		},
		"indexes": s.pipeline.Indexer().IndexStats(),
		"memory":  s.memoryLedger(),
		"cpu":     cpuSeconds(),
	}
	if store := s.pipeline.Provenance(); store != nil {
		body["provenance"] = store.Stats()
	}
	if s.durStats != nil {
		body["durability"] = s.durStats()
	}
	if s.replStats != nil {
		body["replication"] = s.replStats()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleProvenance serves one lineage record (?seq=N) or every record of a
// generated object, oldest first (?object_id=ID; an unknown object is an
// empty list). Exactly one of the two must be given.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	store := s.pipeline.Provenance()
	if store == nil {
		writeError(w, http.StatusNotFound, "provenance recording is disabled")
		return
	}
	q := r.URL.Query()
	if q.Has("seq") == q.Has("object_id") {
		writeError(w, http.StatusBadRequest, "exactly one of seq and object_id is required")
		return
	}
	if q.Has("object_id") {
		writeJSON(w, http.StatusOK, store.ByObject(q.Get("object_id")))
		return
	}
	seqStr := q.Get("seq")
	seq, err := strconv.Atoi(seqStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "seq must be an integer, got %q", seqStr)
		return
	}
	rec, ok := store.Get(seq)
	if !ok {
		writeError(w, http.StatusNotFound, "no provenance record %d", seq)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleHealthz answers 200 {"status":"ok"}, or 503 {"status":"read_only"}
// with the reason while the WAL refuses writes: reads still serve, but a
// load balancer should send writes elsewhere and an operator should look.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.durStats != nil {
		if reason := s.durStats().WALReadOnly; reason != "" {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "read_only", "reason": reason})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- helpers ---

// parseKinds maps kind names onto datalake kinds, with a default.
func parseKinds(names []string, def []datalake.Kind) ([]datalake.Kind, error) {
	if len(names) == 0 {
		return def, nil
	}
	out := make([]datalake.Kind, 0, len(names))
	for _, n := range names {
		switch n {
		case "table":
			out = append(out, datalake.KindTable)
		case "tuple":
			out = append(out, datalake.KindTuple)
		case "text":
			out = append(out, datalake.KindText)
		case "entity":
			out = append(out, datalake.KindEntity)
		default:
			return nil, fmt.Errorf("unknown evidence kind %q (want table|tuple|text|entity)", n)
		}
	}
	return out, nil
}

// toResponse flattens a pipeline report into the wire format.
func toResponse(id string, rep core.Report) VerifyResponse {
	resp := VerifyResponse{
		ID:            id,
		Verdict:       rep.Verdict.String(),
		Confidence:    rep.Confidence,
		ProvenanceSeq: rep.ProvenanceSeq,
		AsOfVersion:   rep.AsOfVersion,
		Evidence:      make([]EvidenceResponse, 0, len(rep.Evidence)),
	}
	for _, ev := range rep.Evidence {
		resp.Evidence = append(resp.Evidence, EvidenceResponse{
			InstanceID:  ev.Instance.ID,
			Kind:        ev.Instance.Kind.String(),
			SourceID:    ev.Instance.SourceID,
			Verdict:     ev.Result.Verdict.String(),
			Explanation: ev.Result.Explanation,
			Verifier:    ev.Result.Verifier,
			SourceTrust: ev.SourceTrust,
			RerankScore: ev.RerankScore,
		})
	}
	return resp
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the API's uniform error body with a formatted message.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeErrorBody(w, status, nil, fmt.Sprintf(format, args...))
}

// writeErrorBody is the one writer of error bodies: {"error": msg,
// "request_id": ...} plus the given fields (the floor on a 410, the leader
// on a 421). The request ID is read back from the response header the
// middleware set before dispatch, so every handler — and every error path
// — carries it without threading the request through.
func writeErrorBody(w http.ResponseWriter, status int, fields map[string]any, msg string) {
	if fields == nil {
		fields = make(map[string]any, 2)
	}
	fields["error"] = msg
	if id := w.Header().Get("X-Request-Id"); id != "" {
		fields["request_id"] = id
	}
	writeJSON(w, status, fields)
}
