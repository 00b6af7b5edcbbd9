package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	verifai "repro"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/lakeio"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/server"
	"repro/internal/trust"
	"repro/internal/verify"
	"repro/internal/wal"
)

// perLayer names every per-layer metric and its unit, in layer order from
// the outside in. A layer the workload does not exercise reports 0. The
// client's timings, the child server's CPU time per operation and its peak
// RSS after set-up come from the full window against the child server;
// everything else from the traced replay.
var perLayer = []struct{ name, unit string }{
	{"client.ops_per_s", "1/s"},
	{"client.op_p50_ms", "ms"},
	{"client.op_p95_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.resp_bytes", "B"},
	{"server.rejected_429", "count"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.setup_peak_rss_mb", "MB"},
	{"pipeline.verify_ms", "ms"},
	{"pipeline.self_ms", "ms"},
	{"pipeline.resultcache_hit_ratio", "ratio"},
	{"pipeline.resultcache_invalidations", "count"},
	{"indexer.retrieve_ms", "ms"},
	{"indexer.bm25_ms", "ms"},
	{"indexer.vector_ms", "ms"},
	{"indexer.querycache_hit_ratio", "ratio"},
	{"indexer.candidates", "count"},
	{"embed.query_us", "us"},
	{"datalake.resolve_us", "us"},
	{"rerank.rerank_ms", "ms"},
	{"rerank.candidates_in", "count"},
	{"verify.agent_ms", "ms"},
	{"verify.calls", "count"},
	{"provenance.append_us", "us"},
	{"provenance.records", "count"},
	{"datalake.add_ms", "ms"},
	{"datalake.add_bare_ms", "ms"},
	{"indexer.apply_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_record", "B"},
	{"wal.fsyncs_per_record", "count"},
	{"durable.checkpoint_fork_ms", "ms"},
	{"durable.checkpoint_write_ms", "ms"},
	{"durable.checkpoints", "count"},
	{"durable.open_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"durable.dir_bytes", "B"},
	{"trace.overhead_ratio", "ratio"},
}

const (
	// serverSeed is `verifai serve`'s default -seed, which the child server
	// of the untraced run uses; the in-process system uses the same.
	serverSeed = 1
	// echoRequests bounds how many window requests are re-sent as cache hits
	// to time the server layer alone.
	echoRequests = 2000
	// openRuns is how many times the traced run reopens the data directory;
	// durable.open_ms is their median.
	openRuns = 9
	// pTag marks the copy of the request stream that goes to Pipeline.VerifyCtx
	// directly. The direct stream must meet the result cache in the state the
	// served stream met it, and the cache keys on the object ID: where the
	// served stream missed, the copy needs an ID of its own to miss too; on
	// serve_hot, where it hit, the copy keeps the ID and hits the same entry.
	pTag = "#p"
)

// tracedResult is one traced run's findings.
type tracedResult struct {
	attempted, failed int
	metrics           map[string]float64
	violations        []string
}

// mirror rebuilds core.Pipeline's verification flow from the layers' public
// calls, assembled the way verifai.NewSystem assembles the real one.
type mirror struct {
	sys       *verifai.System
	rerankers *rerank.Registry
	agent     *verify.Agent
	prov      *provenance.Store
	cfg       core.PipelineConfig
}

func newMirror(sys *verifai.System, opts verifai.Options) *mirror {
	return &mirror{
		sys:       sys,
		rerankers: rerank.NewRegistry(rerank.NewColBERT(sys.Pipeline().Indexer().Embedder(), 256)),
		agent:     verify.NewAgent(verify.NewLLMVerifier(opts.LLM)),
		prov:      provenance.NewStore(),
		cfg:       opts.Pipeline,
	}
}

// flowCounts is the work one flow did, counted at the layer boundaries.
type flowCounts struct {
	hits          int // returned by the index families, before fusion
	candidates    int // distinct instances handed to the reranker
	verifierCalls int
}

// flow runs retrieve → resolve → rerank → verify → resolve verdict →
// provenance for one object, one span per layer call under a root span, and
// returns the verdict and the evidence instance IDs in rank order.
func (m *mirror) flow(tr *tracer, req int, g verify.Generated, kinds []datalake.Kind) (string, []string, flowCounts, error) {
	p := m.sys.Pipeline()
	root := tr.start("pipeline.flow", -1, req)
	defer tr.end(root)
	query := g.Query()

	s := tr.start("indexer.retrieve", root, req)
	hits, combined := p.Indexer().RetrieveCtx(context.Background(), query, m.cfg.TopK, kinds...)
	tr.end(s)

	s = tr.start("datalake.resolve", root, req)
	instances := make([]datalake.Instance, 0, len(combined))
	for _, id := range combined {
		inst, err := p.Lake().Resolve(id)
		if err != nil {
			tr.end(s)
			return "", nil, flowCounts{}, fmt.Errorf("resolve candidate: %w", err)
		}
		instances = append(instances, inst)
	}
	tr.end(s)

	q := rerank.Query{Text: query}
	switch g.Kind {
	case verify.KindTuple:
		tp := g.Tuple
		q.Tuple = &tp
	case verify.KindClaim:
		c := g.Claim
		q.Claim = &c
	}
	s = tr.start("rerank.rerank", root, req)
	scored := m.rerankers.Rerank(q, instances, m.cfg.TopKPrime)
	tr.end(s)
	byID := make(map[string]datalake.Instance, len(instances))
	for _, in := range instances {
		byID[in.ID] = in
	}
	ordered := make([]datalake.Instance, len(scored))
	reranked := make([]provenance.RerankEntry, len(scored))
	for rank, sc := range scored {
		ordered[rank] = byID[sc.ID]
		reranked[rank] = provenance.RerankEntry{InstanceID: sc.ID, Score: sc.Score, Rank: rank}
	}

	s = tr.start("verify.agent", root, req)
	results := make([]verify.Result, len(ordered))
	for i, in := range ordered {
		res, err := m.agent.Verify(g, in)
		if err != nil {
			tr.end(s)
			return "", nil, flowCounts{}, err
		}
		results[i] = res
	}
	tr.end(s)

	votes := make(map[string][]float64)
	decisions := make([]provenance.VerifierDecision, len(ordered))
	evidence := make([]string, len(ordered))
	for i, in := range ordered {
		st := p.SourceTrust(in.SourceID)
		evidence[i] = in.ID
		decisions[i] = provenance.VerifierDecision{
			InstanceID: in.ID, SourceID: in.SourceID, Verifier: results[i].Verifier,
			Verdict: results[i].Verdict.String(), Explanation: results[i].Explanation, SourceTrust: st,
		}
		if results[i].Verdict != verify.NotRelated {
			votes[results[i].Verdict.String()] = append(votes[results[i].Verdict.String()], st)
		}
	}
	verdict, resolution := verify.NotRelated.String(), "no decisive evidence"
	if len(votes) > 0 {
		verdict, _ = trust.WeightedVerdict(votes)
		resolution = "trust-weighted majority"
	}

	s = tr.start("provenance.append", root, req)
	m.prov.Append(provenance.Record{
		ObjectID: g.ID, Query: query, Hits: hits, Combined: combined, Reranked: reranked,
		Decisions: decisions, FinalVerdict: verdict, Resolution: resolution,
	})
	tr.end(s)
	return verdict, evidence, flowCounts{hits: len(hits), candidates: len(instances), verifierCalls: len(ordered)}, nil
}

// probes times the calls the flow cannot split from outside: each index
// family alone and the query embedding. They are extra work beside the
// request, so they are roots of their own, not children of its flow span.
func (m *mirror) probes(tr *tracer, req int, g verify.Generated, kinds []datalake.Kind) {
	ix := m.sys.Pipeline().Indexer()
	query := g.Query()
	s := tr.start("indexer.bm25", -1, req)
	ix.RetrieveFamily(query, "bm25", m.cfg.TopK, kinds...)
	tr.end(s)
	s = tr.start("indexer.vector", -1, req)
	ix.RetrieveFamily(query, "vector", m.cfg.TopK, kinds...)
	tr.end(s)
	s = tr.start("embed.query", -1, req)
	ix.Embedder().EmbedText(query)
	tr.end(s)
}

// sameEvidence reports whether a report carries exactly these verdict and
// evidence IDs.
func sameEvidence(rep core.Report, verdict string, evidence []string) bool {
	if rep.Verdict.String() != verdict || len(rep.Evidence) != len(evidence) {
		return false
	}
	for i, ev := range rep.Evidence {
		if ev.Instance.ID != evidence[i] {
			return false
		}
	}
	return true
}

// serve calls the server's handler in-process and returns the status and
// body. The span covers the handler only: connection handling and the
// kernel's loopback path are outside an in-process call.
func serve(tr *tracer, name string, req int, h http.Handler, method, target string, body []byte) (int, []byte) {
	r := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s := tr.start(name, -1, req)
	h.ServeHTTP(w, r)
	tr.end(s)
	return w.Code, w.Body.Bytes()
}

// countingFS counts the fsyncs a log issues through it.
type countingFS struct {
	faultfs.FS
	syncs atomic.Int64
}

type countingFile struct {
	faultfs.File
	syncs *atomic.Int64
}

func (f countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.syncs}, nil
}

// openSystem opens the durable system the way `verifai serve -lake L
// -data-dir D -fsync always -exact` does.
func openSystem(dataDir string) (*verifai.System, verifai.OpenOptions, error) {
	open := verifai.OpenOptions{Options: verifai.ExactOptions(serverSeed), Sync: "always", WALFormat: "binary"}
	sys, err := verifai.Open(dataDir, open)
	return sys, open, err
}

// seedSystem ingests a saved lake directory through the durable write path
// and checkpoints, as the CLI's seed step does.
func seedSystem(sys *verifai.System, lakeDir string) error {
	seedLake, err := lakeio.Load(lakeDir)
	if err != nil {
		return err
	}
	defer seedLake.Close()
	lake := sys.Pipeline().Lake()
	for _, src := range seedLake.Sources() {
		if err := lake.AddSource(src); err != nil {
			return err
		}
	}
	var items []verifai.BatchItem
	for _, id := range seedLake.TableIDs() {
		t, _ := seedLake.Table(id)
		items = append(items, verifai.BatchItem{Table: t})
	}
	for _, id := range seedLake.DocIDs() {
		d, _ := seedLake.Document(id)
		items = append(items, verifai.BatchItem{Doc: d})
	}
	for _, tr := range seedLake.Graph().Triples() {
		tr := tr
		items = append(items, verifai.BatchItem{Triple: &tr})
	}
	results, err := sys.AddBatch(items)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// tracedRun carries the state of one traced replay.
type tracedRun struct {
	sys     *verifai.System
	handler http.Handler
	m       *mirror
	tr      *tracer
	res     *tracedResult

	tag            string // suffix of the direct stream's object IDs
	nextReq        int
	forkNS, wrNS   int64
	checkpoints    int
	hits           int
	candidates     int
	verifierCalls  int
	flows          int
	tracedFlowNS   int64
	untracedFlowNS int64
	respBytes      int64
	served         int // verify requests answered by the handler in the window
}

func (t *tracedRun) violate(format string, args ...any) {
	t.res.violations = append(t.res.violations, fmt.Sprintf(format, args...))
}

// checkpoint takes a checkpoint and records the program's own split of it
// into the quiesced fork and the background write.
func (t *tracedRun) checkpoint() error {
	s := t.tr.start("durable.checkpoint", -1, -1)
	_, err := t.sys.Checkpoint()
	t.tr.end(s)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	st, _ := t.sys.Durability()
	t.forkNS += st.LastForkNanos
	t.wrNS += st.LastWriteNanos
	t.checkpoints++
	return nil
}

// tagged returns the request's object under the direct stream's ID.
func (t *tracedRun) tagged(r *request) verify.Generated {
	g := r.Obj
	g.ID += t.tag
	return g
}

// warm sends one request down both streams without recording anything.
func (t *tracedRun) warm(r *request, query string) error {
	if status, _ := serve(nil, "", 0, t.handler, http.MethodPost, r.Path+query, r.Body); status != http.StatusOK {
		return fmt.Errorf("warm-up request %s: status %d", r.ID, status)
	}
	_, err := t.sys.Pipeline().VerifyCtx(context.Background(), t.tagged(r), r.Kinds...)
	return err
}

// verifyServed is the window's outermost step for one request: the handler
// call, checked like the untraced run checks a response.
func (t *tracedRun) verifyServed(r *request, query string) {
	req := t.nextReq
	t.nextReq++
	t.res.attempted++
	status, body := serve(t.tr, "server", req, t.handler, http.MethodPost, r.Path+query, r.Body)
	var resp server.VerifyResponse
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.ID != r.ID {
		t.res.failed++
		return
	}
	t.served++
	t.respBytes += int64(len(body))
}

// verifyDirect calls Pipeline.VerifyCtx on the tagged copy of the request.
func (t *tracedRun) verifyDirect(span string, r *request) (core.Report, error) {
	s := t.tr.start(span, -1, -1)
	rep, err := t.sys.Pipeline().VerifyCtx(context.Background(), t.tagged(r), r.Kinds...)
	t.tr.end(s)
	if err != nil {
		return rep, fmt.Errorf("Pipeline.VerifyCtx %s: %w", r.ID, err)
	}
	return rep, nil
}

// flowResult is what one step-by-step flow reached.
type flowResult struct {
	verdict  string
	evidence []string
}

// timedFlow runs one flow, traced or not, and adds its wall time to the
// matching total.
func (t *tracedRun) timedFlow(traced bool, req int, r *request) (flowResult, error) {
	tr, total := t.tr, &t.tracedFlowNS
	if !traced {
		tr, total = nil, &t.untracedFlowNS
	}
	t0 := time.Now()
	verdict, evidence, counts, err := t.m.flow(tr, req, r.Obj, r.Kinds)
	*total += int64(time.Since(t0))
	if traced {
		t.flows++
		t.hits += counts.hits
		t.candidates += counts.candidates
		t.verifierCalls += counts.verifierCalls
	}
	return flowResult{verdict, evidence}, err
}

// mirrored runs, for one request, Pipeline.VerifyCtx under the given span
// name, the step-by-step flow traced and untraced, and the probes, then checks
// that the flow reached what the program reached. Whatever runs second
// finds the processor's caches and the query-embedding cache warm, so the
// order flips with the request's parity and the advantage cancels in the
// means.
func (t *tracedRun) mirrored(i int, r *request, programSpan string) error {
	req := t.nextReq
	t.nextReq++
	t.res.attempted++
	var want core.Report
	var got flowResult
	var err error
	program := func() error {
		want, err = t.verifyDirect(programSpan, r)
		return err
	}
	flows := func() error {
		for _, traced := range []bool{i%4 < 2, i%4 >= 2} {
			res, err := t.timedFlow(traced, req, r)
			if err != nil {
				return err
			}
			if traced {
				got = res
			}
		}
		return nil
	}
	steps := []func() error{program, flows}
	if i%2 == 1 {
		steps = []func() error{flows, program}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	t.m.probes(t.tr, req, r.Obj, r.Kinds)
	if !sameEvidence(want, got.verdict, got.evidence) {
		t.res.failed++
		t.violate("request %s: the step-by-step flow reached %s %v, Pipeline.VerifyCtx reached %s with %d evidence",
			r.ID, got.verdict, got.evidence, want.Verdict, len(want.Evidence))
	}
	return nil
}

// echo re-sends a request whose result is cached down both streams and
// times the two hits. Their difference is the server layer's own time:
// routing, admission, strict decode, report encoding, middleware.
func (t *tracedRun) echo(r *request) error {
	if err := t.warm(r, ""); err != nil { // both copies cached, whatever was written since
		return err
	}
	if status, _ := serve(t.tr, "server.echo", -1, t.handler, http.MethodPost, r.Path, r.Body); status != http.StatusOK {
		return fmt.Errorf("echo %s: status %d", r.ID, status)
	}
	_, err := t.verifyDirect("pipeline.echo", r)
	return err
}

// runTraced replays the workload's inputs in-process, layer by layer, and
// derives the per-layer metrics from the spans and from the program's own
// counters read around the served stream.
func runTraced(sp spec, in *inputs, workDir, spanPath string) (*tracedResult, error) {
	lakeDir := filepath.Join(workDir, "lake")
	dataDir := filepath.Join(workDir, "data")
	if err := in.saveLake(lakeDir); err != nil {
		return nil, err
	}
	sys, open, err := openSystem(dataDir)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()
	t := &tracedRun{
		sys: sys, tr: newTracer(), m: newMirror(sys, open.Options),
		res: &tracedResult{metrics: make(map[string]float64)}, tag: pTag,
	}
	if sp.name == wlServeHot {
		t.tag = ""
	}
	if err := seedSystem(sys, lakeDir); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	if err := t.checkpoint(); err != nil {
		return nil, err
	}
	t.handler = server.New(sys.Pipeline(),
		server.WithVerifyTimeout(30*time.Second),
		server.WithDurability(func() verifai.DurabilityStats { st, _ := sys.Durability(); return st }, sys.Checkpoint),
		server.WithSnapshots(sys.PinSnapshot, sys.UnpinSnapshot),
		server.WithObs(sys.Metrics()))

	// Warm-up, down both streams.
	if sp.name == wlIngestLive {
		for _, w := range in.warmW {
			v, err := sys.Pipeline().Lake().AddTableVersioned(w.Table)
			if err != nil {
				return nil, fmt.Errorf("warm-up ingest: %w", err)
			}
			if err := t.warm(w.Verify, "?min_version="+strconv.FormatUint(v, 10)); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range in.warm {
			if err := t.warm(r, ""); err != nil {
				return nil, err
			}
		}
	}

	// The served stream: every window request through the handler, with the
	// program's counters read on either side.
	before := sys.Stats()
	provBefore := sys.Provenance().Len()
	if sp.name == wlIngestLive {
		n := len(in.winW)
		for i, w := range in.winW {
			req := t.nextReq
			status, body := serve(t.tr, "server.ingest", req, t.handler, http.MethodPost, "/v1/ingest/table", w.Body)
			var ack server.IngestResponse
			t.res.attempted++
			if status != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.Version == 0 {
				t.res.failed++
				t.nextReq++
				continue
			}
			t.verifyServed(w.Verify, "?min_version="+strconv.FormatUint(ack.Version, 10))
			if i+1 == max(1, n/checkpointAfterShare) {
				if err := t.checkpoint(); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for _, r := range in.window {
			t.verifyServed(r, "")
		}
	}
	after := sys.Stats()
	var st serverStats
	if status, body := serve(nil, "", 0, t.handler, http.MethodGet, "/v1/stats", nil); status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return nil, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	provRecords := sys.Provenance().Len() - provBefore

	// The direct stream, with the step-by-step flow beside every call that
	// misses the result cache. On serve_hot no call in the window misses,
	// so its flows run on the pool instead, one item in flowEvery.
	verifyReqs := in.window
	if sp.name == wlIngestLive {
		verifyReqs = make([]*request, len(in.winW))
		for i, w := range in.winW {
			verifyReqs[i] = w.Verify
		}
	}
	missesBefore := sys.Stats().ResultCacheMisses
	for i, r := range verifyReqs {
		if sp.name == wlServeHot {
			if _, err := t.verifyDirect("pipeline.verify", r); err != nil {
				return nil, err
			}
			continue
		}
		if err := t.mirrored(i, r, "pipeline.verify"); err != nil {
			return nil, err
		}
	}
	directMisses := sys.Stats().ResultCacheMisses - missesBefore
	if sp.name == wlServeHot {
		if directMisses != 0 {
			t.violate("%d direct calls missed the result cache on serve_hot", directMisses)
		}
		// Their program calls get a span name of their own, so that
		// pipeline.verify_ms stays the window's.
		const flowEvery = 4
		for i := 0; i < len(in.warm); i += flowEvery {
			if err := t.mirrored(i/flowEvery, in.warm[i], "pipeline.reference"); err != nil {
				return nil, err
			}
		}
	} else if directMisses != uint64(len(verifyReqs)) {
		t.violate("%d of %d direct calls missed the result cache; every one should", directMisses, len(verifyReqs))
	}
	for _, r := range verifyReqs[:min(len(verifyReqs), echoRequests)] {
		if err := t.echo(r); err != nil {
			return nil, err
		}
	}

	hits := after.ResultCacheHits - before.ResultCacheHits
	misses := after.ResultCacheMisses - before.ResultCacheMisses
	hitRatio := ratio(float64(hits), float64(hits+misses))
	switch sp.name {
	case wlClaimsCold, wlTuplesCold:
		if hits != 0 {
			t.violate("result cache hit %d times on a cold workload", hits)
		}
	case wlServeHot:
		if hitRatio < 0.97 {
			t.violate("result-cache hit ratio %.4f < 0.97 on serve_hot", hitRatio)
		}
	}

	// Write side, layer by layer, on the window's tables.
	if sp.name == wlIngestLive {
		if err := t.writeSide(in.winW, workDir); err != nil {
			return nil, err
		}
	}

	// Recovery: close without a checkpoint, so every reopen replays whatever
	// the log holds past the last checkpoint, as a restart after a kill would.
	closed = true
	if err := sys.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	opens := make([]float64, 0, openRuns)
	replayed := 0
	for i := 0; i < openRuns; i++ {
		t0 := time.Now()
		s := t.tr.start("durable.open", -1, -1)
		re, _, err := openSystem(dataDir)
		t.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, float64(time.Since(t0))/float64(time.Millisecond))
		dst, _ := re.Durability()
		replayed = dst.ReplayedRecords
		if err := re.Close(); err != nil {
			return nil, fmt.Errorf("close after reopen: %w", err)
		}
	}
	dir, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}

	if err := writeSpans(spanPath, t.tr.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	tot := totalsByName(t.tr.spans)
	meanMS := func(name string) float64 { return tot.mean(name) / 1e6 }
	meanUS := func(name string) float64 { return tot.mean(name) / 1e3 }
	m := t.res.metrics
	direct := float64(len(verifyReqs))
	m["pipeline.verify_ms"] = meanMS("pipeline.verify")
	m["server.self_ms"] = meanMS("server.echo") - meanMS("pipeline.echo")
	m["server.resp_bytes"] = ratio(float64(t.respBytes), float64(t.served))
	m["server.rejected_429"] = float64(st.Serving.VerifyRejected)
	// Time inside the real pipeline that no layer call accounts for: the
	// direct calls' total minus what the flows spent inside layers, the
	// flows being exactly the direct calls that missed the cache.
	if f := tot["pipeline.flow"]; f != nil && sp.name != wlServeHot {
		m["pipeline.self_ms"] = (float64(tot["pipeline.verify"].durNS) - float64(f.durNS-f.selfNS)) / direct / 1e6
	} else {
		m["pipeline.self_ms"] = meanMS("pipeline.verify")
	}
	m["pipeline.resultcache_hit_ratio"] = hitRatio
	m["pipeline.resultcache_invalidations"] = float64(after.ResultCacheInvalidations - before.ResultCacheInvalidations)
	m["indexer.retrieve_ms"] = meanMS("indexer.retrieve")
	m["indexer.bm25_ms"] = meanMS("indexer.bm25")
	m["indexer.vector_ms"] = meanMS("indexer.vector")
	qh, qm := after.QueryCacheHits-before.QueryCacheHits, after.QueryCacheMisses-before.QueryCacheMisses
	m["indexer.querycache_hit_ratio"] = ratio(float64(qh), float64(qh+qm))
	m["indexer.candidates"] = ratio(float64(t.hits), float64(t.flows))
	m["embed.query_us"] = meanUS("embed.query")
	m["datalake.resolve_us"] = meanUS("datalake.resolve")
	m["rerank.rerank_ms"] = meanMS("rerank.rerank")
	m["rerank.candidates_in"] = ratio(float64(t.candidates), float64(t.flows))
	m["verify.agent_ms"] = meanMS("verify.agent")
	m["verify.calls"] = ratio(float64(t.verifierCalls), float64(t.flows))
	m["provenance.append_us"] = meanUS("provenance.append")
	m["provenance.records"] = float64(provRecords)
	m["datalake.add_ms"] = meanMS("datalake.add")
	m["datalake.add_bare_ms"] = meanMS("datalake.add_bare")
	m["indexer.apply_ms"] = meanMS("datalake.add") - meanMS("datalake.add_bare")
	m["wal.append_us"] = meanUS("wal.append")
	m["durable.checkpoint_fork_ms"] = ratio(float64(t.forkNS), float64(t.checkpoints)) / 1e6
	m["durable.checkpoint_write_ms"] = ratio(float64(t.wrNS), float64(t.checkpoints)) / 1e6
	m["durable.checkpoints"] = float64(t.checkpoints)
	m["durable.open_ms"] = median(opens)
	m["durable.replayed_records"] = float64(replayed)
	m["durable.dir_bytes"] = float64(dir)
	m["trace.overhead_ratio"] = ratio(float64(t.tracedFlowNS), float64(t.untracedFlowNS))
	return t.res, nil
}

// writeSide times the write path's layers on the window's tables: the lake
// with an indexer subscribed and bare, and the log alone with fsync per
// append in a directory of its own.
func (t *tracedRun) writeSide(ws []*ingest, workDir string) error {
	indexed := datalake.New()
	defer indexed.Close()
	ix, err := core.BuildIndexer(indexed, core.DefaultIndexerConfig(serverSeed))
	if err != nil {
		return err
	}
	defer ix.Close()
	bare := datalake.New()
	defer bare.Close()

	cfs := &countingFS{FS: faultfs.OS}
	log, err := wal.Open(filepath.Join(workDir, "walprobe"), wal.Options{Sync: wal.SyncAlways, Format: wal.FormatBinary, FS: cfs},
		func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	defer log.Close()
	syncs0 := cfs.syncs.Load()

	for i, w := range ws {
		s := t.tr.start("datalake.add", -1, -1)
		_, err := indexed.AddTableVersioned(w.Table.Clone())
		t.tr.end(s)
		if err != nil {
			return fmt.Errorf("datalake.add: %w", err)
		}
		s = t.tr.start("datalake.add_bare", -1, -1)
		_, err = bare.AddTableVersioned(w.Table.Clone())
		t.tr.end(s)
		if err != nil {
			return fmt.Errorf("datalake.add_bare: %w", err)
		}
		s = t.tr.start("wal.append", -1, -1)
		err = log.Append(wal.Record{Version: uint64(i + 1), Kind: wal.KindTable, Table: w.Table})
		t.tr.end(s)
		if err != nil {
			return fmt.Errorf("wal.append: %w", err)
		}
	}
	ls := log.Stats()
	t.res.metrics["wal.bytes_per_record"] = ratio(float64(ls.Bytes), float64(ls.Records))
	t.res.metrics["wal.fsyncs_per_record"] = ratio(float64(cfs.syncs.Load()-syncs0), float64(ls.Records))
	return nil
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
