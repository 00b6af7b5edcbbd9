package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	h := newHistogram(DefBuckets)
	// 100 observations: 50 at 0.8ms, 45 at 8ms, 5 at 80ms. Quantiles must
	// answer the exact upper bound of the containing bucket.
	for i := 0; i < 50; i++ {
		h.Observe(0.0008)
	}
	for i := 0; i < 45; i++ {
		h.Observe(0.008)
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.08)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 1e-3},  // rank 50 is the last 0.8ms observation -> le=0.001
		{0.51, 1e-2},  // rank 51 is the first 8ms observation  -> le=0.01
		{0.95, 1e-2},  // rank 95 is the last 8ms observation   -> le=0.01
		{0.96, 1e-1},  // rank 96 is in the 80ms group          -> le=0.1
		{0.99, 1e-1},  //
		{1.00, 1e-1},  //
		{0.001, 1e-3}, // rank ceil(0.1)=1 -> first bucket with data
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	wantSum := 50*0.0008 + 45*0.008 + 5*0.08
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram(DefBuckets)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %v, want 0", got)
	}
	h.Observe(100) // beyond the last bound -> +Inf bucket
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("overflow-bucket Quantile = %v, want +Inf", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	h := r.Histogram("test_latency_seconds", "latency")
	vec := r.CounterVec("test_by_route_total", "by route", "route")
	hvec := r.HistogramVec("test_stage_seconds", "stages", "stage")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctr.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
				vec.With("a").Inc()
				hvec.With("s1").Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	if want := uint64(workers * perWorker); ctr.Value() != want {
		t.Errorf("counter = %d, want %d", ctr.Value(), want)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %v, want 0", g.Value())
	}
	if want := uint64(workers * perWorker); h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if math.Abs(h.Sum()-float64(workers*perWorker)*0.001) > 1e-6 {
		t.Errorf("histogram sum = %v", h.Sum())
	}
	if want := uint64(workers * perWorker); vec.With("a").Value() != want {
		t.Errorf("vec counter = %d, want %d", vec.With("a").Value(), want)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "x").Inc()
	r.Gauge("g", "g").Set(3)
	r.Histogram("h_seconds", "h").Observe(1)
	r.CounterVec("v_total", "v", "l").With("a").Add(2)
	r.HistogramVec("hv_seconds", "hv", "l").With("a").Since(time.Now())
	r.CounterFunc("cf_total", "cf", func() uint64 { return 1 })
	r.GaugeFunc("gf", "gf", func() float64 { return 1 })
	r.GaugeVec("gv", "gv", "l").With("a").Set(1)
	r.OnCollect(func() { t.Error("a nil registry ran a collector") })
	done := r.Span(context.Background(), "stage")
	done()
	ctx := r.StartTrace(context.Background(), "id")
	r.FinishTrace(ctx, "route", 200)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if got := r.Traces().Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v", got)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("verifai_test_ops_total", "Operations.").Add(7)
	r.Gauge("verifai_test_depth", "Queue depth.").Set(2.5)
	r.CounterVec("verifai_test_http_total", "Requests.", "route", "status").With("/v1/stats", "200").Add(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP verifai_test_ops_total Operations.
# TYPE verifai_test_ops_total counter
verifai_test_ops_total 7
# HELP verifai_test_depth Queue depth.
# TYPE verifai_test_depth gauge
verifai_test_depth 2.5
# HELP verifai_test_http_total Requests.
# TYPE verifai_test_http_total counter
verifai_test_http_total{route="/v1/stats",status="200"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestOnCollectRunsOncePerExposition: a collector runs before any series
// of that exposition is read, once, however many gauges it feeds.
func TestOnCollectRunsOncePerExposition(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("verifai_test_bytes", "Bytes.", "where")
	walks := 0
	r.OnCollect(func() {
		walks++
		vec.With("heap").Set(float64(10 * walks))
		vec.With("mapped").Set(float64(100 * walks))
	})
	for scrape := 1; scrape <= 2; scrape++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("verifai_test_bytes{where=\"heap\"} %d\nverifai_test_bytes{where=\"mapped\"} %d\n", 10*scrape, 100*scrape)
		if walks != scrape || !strings.Contains(b.String(), want) {
			t.Errorf("scrape %d: %d walks, exposition:\n%s", scrape, walks, b.String())
		}
	}
}

func TestWritePrometheusHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("verifai_test_latency_seconds", "Latency.")
	h.Observe(0.0008) // le=0.001
	h.Observe(0.0008)
	h.Observe(0.03) // le=0.05
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE verifai_test_latency_seconds histogram",
		`verifai_test_latency_seconds_bucket{le="0.001"} 2`,
		`verifai_test_latency_seconds_bucket{le="0.05"} 3`,
		`verifai_test_latency_seconds_bucket{le="+Inf"} 3`,
		"verifai_test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Errorf("Lint of own exposition: %v", errs)
	}
}

func TestHistogramBucketLadders(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("verifai_test_io_seconds", "IO.", []float64{0.001, 0.1, 10})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	h.Observe(60) // lands in +Inf only
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`verifai_test_io_seconds_bucket{le="0.001"} 1`,
		`verifai_test_io_seconds_bucket{le="0.1"} 2`,
		`verifai_test_io_seconds_bucket{le="10"} 3`,
		`verifai_test_io_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="0.005"`) {
		t.Error("custom-ladder histogram leaked a DefBuckets bound")
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Errorf("Lint of custom-ladder exposition: %v", errs)
	}

	// Vec variant: every label child shares the family ladder.
	hv := r.HistogramVecBuckets("verifai_test_stage_seconds", "Stages.", StageBuckets, "stage")
	hv.With("retrieve").Observe(0.01)
	if q := hv.With("retrieve").Quantile(0.5); q <= 0 {
		t.Errorf("vec child quantile = %v, want > 0", q)
	}

	// Re-registration: a ladder-less lookup of a custom-ladder family
	// returns the same handle (callers that just observe don't restate the
	// ladder)...
	if r.Histogram("verifai_test_io_seconds", "IO.") != h {
		t.Error("ladder-less re-registration returned a different handle")
	}
	// ...and restating the identical ladder is fine too.
	if r.HistogramBuckets("verifai_test_io_seconds", "IO.", []float64{0.001, 0.1, 10}) != h {
		t.Error("same-ladder re-registration returned a different handle")
	}

	// A conflicting explicit ladder is a programming error: panic, don't
	// silently serve two bucket layouts under one family name.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting bucket ladder did not panic")
			}
		}()
		r.HistogramBuckets("verifai_test_io_seconds", "IO.", []float64{1, 2, 3})
	}()

	// Malformed ladders are rejected at registration.
	for name, bad := range map[string][]float64{
		"descending": {1, 0.5},
		"duplicate":  {1, 1, 2},
		"empty":      {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ladder did not panic", name)
				}
			}()
			r.HistogramBuckets("verifai_test_bad_"+name, "x", bad)
		}()
	}

	// The canned ladders must themselves be valid (strictly ascending).
	for name, ladder := range map[string][]float64{
		"IOBuckets": IOBuckets, "StageBuckets": StageBuckets, "CheckpointBuckets": CheckpointBuckets, "DefBuckets": DefBuckets,
	} {
		for i := 1; i < len(ladder); i++ {
			if ladder[i] <= ladder[i-1] {
				t.Errorf("%s not strictly ascending at index %d: %v", name, i, ladder)
			}
		}
	}
}

func TestLintCatchesProblems(t *testing.T) {
	cases := []struct {
		name, doc, wantSub string
	}{
		{"duplicate series", "# TYPE a counter\na 1\na 2\n", "duplicate series"},
		{"no type", "a 1\n", "no preceding # TYPE"},
		{"bad value", "# TYPE a counter\na xyz\n", "malformed sample"},
		{"missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing le=\"+Inf\""},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "!= count"},
		{"decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "decrease"},
		{"duplicate type", "# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate # TYPE"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := Lint(strings.NewReader(c.doc))
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), c.wantSub) {
					found = true
				}
			}
			if !found {
				t.Errorf("Lint(%q) = %v, want an error containing %q", c.doc, errs, c.wantSub)
			}
		})
	}
	if errs := Lint(strings.NewReader("# TYPE a counter\na{l=\"x\"} 1\na{l=\"y\"} 2\n")); len(errs) > 0 {
		t.Errorf("clean doc flagged: %v", errs)
	}
}

func TestSpanAndTraceRing(t *testing.T) {
	r := NewRegistry()
	ctx := r.StartTrace(context.Background(), "req-1")
	if got := TraceID(ctx); got != "req-1" {
		t.Fatalf("TraceID = %q", got)
	}
	done := r.Span(ctx, "retrieve")
	time.Sleep(time.Millisecond)
	done()
	r.Span(ctx, "rerank")()
	r.FinishTrace(ctx, "/v1/verify/claim", 200)

	traces := r.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != "req-1" || tr.Route != "/v1/verify/claim" || tr.Status != 200 {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "retrieve" || tr.Spans[1].Name != "rerank" {
		t.Errorf("spans = %+v", tr.Spans)
	}
	if tr.Spans[0].Duration < time.Millisecond {
		t.Errorf("retrieve span duration %v too short", tr.Spans[0].Duration)
	}
	// The span also landed in the stage histogram.
	h := r.HistogramVec(stageMetric, "", "stage").With("retrieve")
	if h.Count() != 1 {
		t.Errorf("stage histogram count = %d, want 1", h.Count())
	}
}

func TestTraceRingBounded(t *testing.T) {
	tr := newTraceRing(4)
	for i := 0; i < 10; i++ {
		tr.add(Trace{ID: string(rune('a' + i))})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(got))
	}
	// Newest first: j, i, h, g.
	if got[0].ID != "j" || got[3].ID != "g" {
		t.Errorf("snapshot order = %v", got)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "x")
	b := r.Counter("same_total", "x")
	if a != b {
		t.Error("re-registration returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("same_total", "x")
}
