package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/verify"
)

const (
	// clients is the closed loop's width: callers wait for a verdict before
	// they use generated content, and the box has two cores.
	clients = 2
	// ingest_live requests one non-blocking checkpoint when 1/checkpointAfterShare
	// of the window's round trips have completed. A checkpoint takes about
	// 3 s, a quarter of the window: the median stays the plain write path's
	// and the 95th percentile is the overlap's. Early enough that it ends
	// inside the window even when the box is slow.
	checkpointAfterShare = 4
)

// child is one `verifai serve` process.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startServer launches `verifai serve` on a free loopback port with the
// configuration every workload shares and returns once /v1/healthz answers
// 200, with the seconds that took. Cancelling ctx kills the server.
func startServer(ctx context.Context, bin, lakeDir, dataDir string) (*child, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	cmd := exec.CommandContext(ctx, bin, "serve", "-lake", lakeDir, "-data-dir", dataDir,
		"-fsync", "always", "-exact", "-addr", addr)
	// The server logs one line per request; nobody reads them here.
	cmd.Stdout, cmd.Stderr = nil, nil
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(c.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("verifai serve exited before answering /v1/healthz (run it by hand on %s to see why)", dataDir)
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, 0, fmt.Errorf("verifai serve did not answer /v1/healthz within 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until it has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.exited
}

// statusMB reads one memory field of the server's /proc/<pid>/status:
// VmRSS, what is resident now, or VmHWM, the most that ever was.
func (c *child) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, c.cmd.Process.Pid)
}

// cpuSeconds reads the server's user plus system CPU time so far from
// /proc/<pid>/stat, which counts it in ticks of 1/100 s.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, in parentheses, may hold spaces; the numbered
	// fields resume after it, utime and stime being the 14th and 15th.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", c.cmd.Process.Pid, data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", c.cmd.Process.Pid, data)
	}
	return (utime + stime) / 100, nil
}

// conn is one client of the closed loop: its own keep-alive connection and
// a reusable response buffer.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which stays
// valid until the next call.
func (c *conn) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// outcome is what one operation's checks found.
type outcome struct {
	ok     bool // every response arrived with status 200 and passed its checks
	scored bool // a verdict came back and counts toward verdict_accuracy
	agree  bool // the verdict equals the ground-truth label
	status int  // the status that made it fail (0 for a transport error)
}

// tally accumulates outcomes across client goroutines' private slices.
type tally struct {
	attempted, failed int
	scored, agree     int
	byStatus          map[int]int // failed operations by HTTP status
	latMS             []float64   // latency of each successful operation
}

func (t *tally) add(o outcome, ms float64) {
	t.attempted++
	if o.scored {
		t.scored++
		if o.agree {
			t.agree++
		}
	}
	if !o.ok {
		t.failed++
		if t.byStatus == nil {
			t.byStatus = make(map[int]int)
		}
		t.byStatus[o.status]++
		return
	}
	t.latMS = append(t.latMS, ms)
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.scored += o.scored
	t.agree += o.agree
	for k, v := range o.byStatus {
		if t.byStatus == nil {
			t.byStatus = make(map[int]int)
		}
		t.byStatus[k] += v
	}
	t.latMS = append(t.latMS, o.latMS...)
}

// closedLoop runs operations 0..n-1 on `clients` connections, each sending
// its next operation only after the previous one completed, and returns the
// merged tally and the wall time. onDone, when set, is called with the
// number of operations completed so far after each one.
func closedLoop(n int, op func(c *conn, i int) outcome, onDone func(done int)) (*tally, time.Duration) {
	var next, done atomic.Int64
	parts := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		parts[w] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				o := op(c, i)
				t.add(o, float64(time.Since(t0))/float64(time.Millisecond))
				if onDone != nil {
					onDone(int(done.Add(1)))
				}
			}
		}(parts[w])
	}
	wg.Wait()
	wall := time.Since(start)
	total := &tally{}
	for _, p := range parts {
		total.merge(p)
	}
	return total, wall
}

// verifyOnce posts one verify request and checks the response: status 200,
// a well-formed report echoing the request's ID, a known verdict.
func verifyOnce(c *conn, base string, r *request, query string) (outcome, *server.VerifyResponse) {
	status, body, err := c.do(http.MethodPost, base+r.Path+query, r.Body)
	if err != nil || status != http.StatusOK {
		return outcome{status: status}, nil
	}
	var resp server.VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.ID != r.ID {
		return outcome{status: status}, nil
	}
	switch resp.Verdict {
	case verify.Verified.String(), verify.Refuted.String(), verify.NotRelated.String():
	default:
		return outcome{status: status}, nil
	}
	return outcome{ok: true, scored: true, agree: resp.Verdict == r.Want, status: status}, &resp
}

// readOp is the operation of the three read-only workloads.
func readOp(base string, reqs []*request) func(c *conn, i int) outcome {
	return func(c *conn, i int) outcome {
		o, _ := verifyOnce(c, base, reqs[i], "")
		return o
	}
}

// writeOp is ingest_live's round trip: ingest a fresh table, then verify a
// true claim on it behind the acknowledged version. The claim must come
// back Verified with the fresh table among its evidence; anything else is a
// failed operation. acked receives every acknowledged version.
func writeOp(base string, ws []*ingest, acked *atomic.Uint64) func(c *conn, i int) outcome {
	return func(c *conn, i int) outcome {
		w := ws[i]
		status, body, err := c.do(http.MethodPost, base+"/v1/ingest/table", w.Body)
		if err != nil || status != http.StatusOK {
			return outcome{status: status}
		}
		var ack server.IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil || ack.Version == 0 {
			return outcome{status: status}
		}
		for {
			cur := acked.Load()
			if ack.Version <= cur || acked.CompareAndSwap(cur, ack.Version) {
				break
			}
		}
		return verifyFresh(c, base, w, "?min_version="+strconv.FormatUint(ack.Version, 10))
	}
}

// verifyFresh verifies w's claim and requires Verified with w's table among
// the evidence.
func verifyFresh(c *conn, base string, w *ingest, query string) outcome {
	o, resp := verifyOnce(c, base, w.Verify, query)
	if !o.ok {
		return o
	}
	fresh := false
	for _, ev := range resp.Evidence {
		if ev.InstanceID == "table:"+w.Table.ID {
			fresh = true
		}
	}
	o.ok = o.agree && fresh
	return o
}

// serverStats is the part of GET /v1/stats the invariants read.
type serverStats struct {
	Serving struct {
		Pipeline struct {
			ResultCacheHits          uint64 `json:"result_cache_hits"`
			ResultCacheMisses        uint64 `json:"result_cache_misses"`
			ResultCacheInvalidations uint64 `json:"result_cache_invalidations"`
			QueryCacheHits           uint64 `json:"query_cache_hits"`
			QueryCacheMisses         uint64 `json:"query_cache_misses"`
		} `json:"pipeline"`
		VerifyRejected uint64 `json:"verify_rejected"`
	} `json:"serving"`
}

func fetchStats(c *conn, base string) (serverStats, error) {
	var st serverStats
	status, body, err := c.do(http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// checkpoint requests a checkpoint; a 409 means one is still in flight.
func checkpoint(c *conn, base string) (int, error) {
	status, _, err := c.do(http.MethodPost, base+"/v1/admin/checkpoint", nil)
	return status, err
}

// dirBytes sums the sizes of the regular files under dir, the lock file
// apart: it holds the server's pid, a digit longer on some runs than others.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && d.Name() != "LOCK" {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// sampleOf returns k evenly spaced elements of ws (all of them when there
// are no more than k).
func sampleOf(ws []*ingest, k int) []*ingest {
	if len(ws) <= k {
		return ws
	}
	out := make([]*ingest, k)
	for i := range out {
		out[i] = ws[i*len(ws)/k]
	}
	return out
}

// e2eResult is what one run against the child server found.
type e2eResult struct {
	tally      *tally
	metrics    map[string]float64
	violations []string
	phases     []string
}

// runE2E drives one workload against a child server and measures the
// end-to-end metrics and what the client and the operating system saw of
// the window.
func runE2E(ctx context.Context, sp spec, in *inputs, bin, workDir string) (*e2eResult, error) {
	lakeDir, dataDir := filepath.Join(workDir, "lake"), filepath.Join(workDir, "data")
	// Where the run's wall time went, for the budget in the README.
	var phases []string
	t0 := time.Now()
	lap := func(what string) {
		phases = append(phases, fmt.Sprintf("%s %.2fs", what, time.Since(t0).Seconds()))
		t0 = time.Now()
	}
	if err := in.saveLake(lakeDir); err != nil {
		return nil, err
	}
	lap("save")

	srv, setupS, err := startServer(ctx, bin, lakeDir, dataDir)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	setupPeak, err := srv.statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	lap("set-up")
	base := srv.base
	admin := newConn()
	defer admin.close()

	res := &e2eResult{metrics: make(map[string]float64)}
	violate := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	userBytes := in.seedUserBytes
	var acked atomic.Uint64

	// Warm-up: distinct operations, never reused, excluded from the timings.
	var warm *tally
	if sp.name == wlIngestLive {
		warm, _ = closedLoop(len(in.warmW), writeOp(base, in.warmW, &acked), nil)
		for _, w := range in.warmW {
			userBytes += w.UserBytes
		}
	} else {
		warm, _ = closedLoop(len(in.warm), readOp(base, in.warm), nil)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed (by status: %v)", warm.failed, warm.attempted, warm.byStatus)
	}

	lap("warm-up")
	before, err := fetchStats(admin, base)
	if err != nil {
		return nil, err
	}

	// The window.
	var win *tally
	var wall time.Duration
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if sp.name == wlIngestLive {
		n := len(in.winW)
		// The checkpoint is requested when a fixed round-trip count completes,
		// on the otherwise idle admin connection, so the number of checkpoints
		// repeats exactly and the checkpoint overlaps the same share of the
		// window every run.
		ckStatus := make(chan int, 1) // the one result; the requester never blocks
		win, wall = closedLoop(n, writeOp(base, in.winW, &acked), func(done int) {
			if done == max(1, n/checkpointAfterShare) {
				go func() {
					status, err := checkpoint(admin, base)
					if err != nil {
						status = 0
					}
					ckStatus <- status
				}()
			}
		})
		if status := <-ckStatus; status != http.StatusOK {
			violate("the checkpoint in the window answered %d", status)
		}
		for _, w := range in.winW {
			userBytes += w.UserBytes
		}
	} else {
		win, wall = closedLoop(len(in.window), readOp(base, in.window), nil)
	}

	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lap("window")
	after, err := fetchStats(admin, base)
	if err != nil {
		return nil, err
	}
	hits := after.Serving.Pipeline.ResultCacheHits - before.Serving.Pipeline.ResultCacheHits
	misses := after.Serving.Pipeline.ResultCacheMisses - before.Serving.Pipeline.ResultCacheMisses
	hitRatio := ratio(float64(hits), float64(hits+misses))
	switch sp.name {
	case wlClaimsCold, wlTuplesCold:
		if hits != 0 {
			violate("result cache hit %d times on a cold workload", hits)
		}
	case wlServeHot:
		if hitRatio < 0.97 {
			violate("result-cache hit ratio %.4f < 0.97 on serve_hot", hitRatio)
		}
	}
	if after.Serving.VerifyRejected != 0 {
		violate("%d requests were refused with 429", after.Serving.VerifyRejected)
	}
	if n := win.byStatus[http.StatusConflict]; n != 0 {
		violate("%d operations answered 409", n)
	}

	rss, err := srv.statusMB("VmRSS")
	if err != nil {
		return nil, err
	}

	if sp.name == wlIngestLive {
		// Kill with no closing checkpoint, so the restart replays the log's
		// tail. Process kill only: the page cache survives, so this shows that
		// acknowledged writes reached the log, not that they reached the device.
		srv.kill()
		srv, _, err = startServer(ctx, bin, lakeDir, dataDir)
		if err != nil {
			return nil, fmt.Errorf("restart after kill: %w", err)
		}
		base = srv.base
		status, body, err := admin.do(http.MethodGet, base+"/v1/lake/version", nil)
		var lv struct {
			Version uint64 `json:"version"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &lv) != nil {
			return nil, fmt.Errorf("GET /v1/lake/version after restart: status %d, err %v", status, err)
		}
		if lv.Version != acked.Load() {
			violate("lake version %d after kill and restart, last acknowledged %d", lv.Version, acked.Load())
		}
		post := &tally{}
		for _, w := range sampleOf(in.winW, liveSample) {
			post.add(verifyFresh(admin, base, w, ""), 0)
		}
		post.latMS = nil // the sample counts toward failures and accuracy, not latency
		win.merge(post)
		lap("kill, restart, sample")
		// What the directory settles to: one checkpoint of everything ingested
		// and the log cut back behind it.
		if status, err := checkpoint(admin, base); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("closing checkpoint: status %d, err %v", status, err)
		}
		lap("closing checkpoint")
	}
	// On the read-only workloads the directory is already that: set-up ends
	// with a checkpoint, and a second one of the unchanged lake rewrites the
	// same bytes (checked: the directory's size is the same to the byte).
	disk, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}

	sort.Float64s(win.latMS)
	if len(win.latMS) == 0 {
		return nil, fmt.Errorf("no operation in the window succeeded (by status: %v)", win.byStatus)
	}
	res.tally, res.phases = win, phases
	m := res.metrics
	m["setup_s"] = setupS
	// fail_ratio's complement: a metric that is 0 on every good run has no
	// median to take a share of.
	m["success_ratio"] = float64(win.attempted-win.failed) / float64(win.attempted)
	// On serve_hot the window's verdicts are cached copies of the warm-up
	// pass's, drawn Zipf: scored per draw, the few hottest objects would
	// decide the accuracy. The warm-up pass scores each pool object once.
	scored := win
	if sp.name == wlServeHot {
		scored = warm
	}
	m["verdict_accuracy"] = ratio(float64(scored.agree), float64(scored.scored))
	m["rss_mb"] = rss
	m["disk_bytes_per_user_byte"] = float64(disk) / float64(userBytes)
	// What the client and the operating system saw of the window. On this
	// box they spread too wide from run to run to be gated (see README), so
	// the traced run reports them among the per-layer metrics.
	m["client.ops_per_s"] = float64(len(win.latMS)) / wall.Seconds()
	m["client.op_p50_ms"] = percentile(win.latMS, 50)
	m["client.op_p95_ms"] = percentile(win.latMS, 95)
	m["client.op_p99_ms"] = percentile(win.latMS, 99) // printed only
	m["server.cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(len(win.latMS))
	m["server.setup_peak_rss_mb"] = setupPeak
	m["window_s"] = wall.Seconds()
	m["resultcache_hit_ratio"] = hitRatio
	return res, nil
}
