// Package obs is the dependency-free observability core: atomic
// counters and gauges, fixed-bucket latency histograms with a lock-free
// hot path, and lightweight span tracing, all collected in a named
// Registry that renders itself as Prometheus text exposition
// (WritePrometheus) and feeds the JSON stats endpoints.
//
// Every metric handle is nil-receiver-safe: observing on a nil *Counter,
// *Gauge, or *Histogram is a no-op, and Vec lookups on a nil vec return
// nil children. Instrumented hot paths therefore carry no "is
// observability on" branching — they hold handles that may be nil and
// record unconditionally.
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed,
// *_total for counters); the full catalog this repo registers is
// documented in README.md's Observability section.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bucket upper bounds in seconds:
// 1µs to 10s in a 1-2.5-5 ladder, wide enough for both the sub-millisecond
// ingest stages and multi-second checkpoint writes. The final implicit
// bucket is +Inf.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Per-family bucket ladders. The default ladder spans six decades so it
// fits anything, at the cost of resolution where a family actually lives:
// WAL fsyncs and pipeline stages bunch into a handful of buckets while the
// rest sit empty. Families with a known operating range register one of
// these instead (HistogramBuckets / HistogramVecBuckets).
var (
	// IOBuckets covers storage I/O — WAL appends and fsyncs: 10µs to
	// 2.5s. Anything past 2.5s is a stalled disk; the +Inf bucket is
	// signal enough there.
	IOBuckets = []float64{
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5,
	}
	// StageBuckets covers pipeline and storage stages (retrieve, rerank,
	// verify spans): 50µs to 30s, with room for verifier calls that run
	// seconds.
	StageBuckets = []float64{
		5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10, 30,
	}
	// CheckpointBuckets covers checkpoint fork and write phases: 1ms to
	// 10min — the write phase scales with lake size and legitimately runs
	// far past the default ladder's 10s ceiling.
	CheckpointBuckets = []float64{
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10, 30, 60, 120, 300, 600,
	}
)

// validateBuckets panics on a malformed ladder (registration-time
// programming error, like an invalid metric name).
func validateBuckets(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: metric %q registered with empty bucket ladder", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: metric %q bucket %d is not finite (+Inf is implicit)", name, i))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %q buckets not strictly ascending at index %d", name, i))
		}
	}
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter ignores all writes.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64 // set for CounterFunc registrations
	// float is set for CounterVecFunc registrations: a total in float
	// units, exposed as is.
	float func() float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	if c.float != nil {
		return uint64(c.float())
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. The zero value is
// ready to use; a nil *Gauge ignores all writes.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // set for GaugeFunc registrations
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds and a CAS-loop float accumulation — no locks on the hot
// path. It is read as cumulative bucket counts, the Prometheus exposition
// that histogram_quantile estimates quantiles from. A nil *Histogram
// ignores all observations.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (in the histogram's unit, seconds for all
// latency histograms in this repo).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			break
		}
	}
}

// Since observes the seconds elapsed from start — the common call shape
// for stage timing (`defer h.Since(time.Now())` or explicit ends).
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, for exposition.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// metricKind discriminates family types for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series inside a family.
type child struct {
	labels string // rendered {k="v",...} or "" for unlabeled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one named metric with its children (one for unlabeled
// metrics, one per label combination for vecs).
type family struct {
	name, help string
	kind       metricKind
	labelKeys  []string
	// buckets is the histogram ladder every child of this family uses
	// (nil = DefBuckets). Fixed at registration so all series of one
	// family expose identical le bounds.
	buckets []float64

	mu       sync.Mutex
	children []*child          // registration order; sorted at exposition
	byLabel  map[string]*child // rendered label string -> child

	// fast is the lock-free read path for vec lookups: rendered label
	// string -> *child.
	fast sync.Map
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func (f *family) getOrCreate(labels string) *child {
	if c, ok := f.fast.Load(labels); ok {
		return c.(*child)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byLabel[labels]; ok {
		return c
	}
	c := &child{labels: labels}
	switch f.kind {
	case kindCounter:
		c.ctr = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		bounds := f.buckets
		if bounds == nil {
			bounds = DefBuckets
		}
		c.hist = newHistogram(bounds)
	}
	f.byLabel[labels] = c
	f.children = append(f.children, c)
	f.fast.Store(labels, c)
	return c
}

// CounterVec is a counter family partitioned by labels. A nil vec
// returns nil children.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in the order the
// label keys were registered).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(renderLabels(v.f.labelKeys, values)).ctr
}

// GaugeVec is a gauge family partitioned by labels. A nil vec returns nil
// children.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(renderLabels(v.f.labelKeys, values)).gauge
}

// HistogramVec is a histogram family partitioned by labels. A nil vec
// returns nil children.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.getOrCreate(renderLabels(v.f.labelKeys, values)).hist
}

// renderLabels renders {k="v",...} with values escaped per the text
// exposition format.
func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry is a named collection of metric families plus the recent-trace
// ring. All registration methods are idempotent — registering an existing
// name returns the existing handle (and panic on a kind mismatch, which is
// a programming error). A nil *Registry returns nil (no-op) handles from
// every method, so optional instrumentation needs no branching.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	// collectors run at the start of every exposition (see OnCollect).
	collectors []func()

	traces *TraceRing
}

// NewRegistry returns an empty registry with a 256-entry trace ring.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]*family),
		traces: newTraceRing(256),
	}
}

// Traces returns the registry's recent-trace ring (nil for a nil registry).
func (r *Registry) Traces() *TraceRing {
	if r == nil {
		return nil
	}
	return r.traces
}

func (r *Registry) register(name, help string, kind metricKind, labelKeys []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if buckets != nil {
		validateBuckets(name, buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		// A plain Histogram()/HistogramVec() call (nil buckets) accepts
		// whatever ladder the family registered with; naming a different
		// explicit ladder is a programming error — existing children
		// already carry the old bounds.
		if buckets != nil && !equalBuckets(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different bucket ladder", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labelKeys: labelKeys, buckets: buckets,
		byLabel: make(map[string]*child),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// equalBuckets compares ladders, treating nil as DefBuckets.
func equalBuckets(a, b []float64) bool {
	if a == nil {
		a = DefBuckets
	}
	if b == nil {
		b = DefBuckets
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, nil).getOrCreate("").ctr
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for mirroring counters that already live elsewhere
// (existing atomics, struct stats) without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, nil, nil).getOrCreate("").ctr.fn = fn
}

// CounterVecFunc registers a counter family with one label, labelKey,
// and one series per element of values, whose value is read from fn at
// exposition time: for totals kept elsewhere in float units, such as the
// runtime's CPU seconds.
func (r *Registry) CounterVecFunc(name, help, labelKey string, values []string, fn func(value string) float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounter, []string{labelKey}, nil)
	for _, v := range values {
		f.getOrCreate(renderLabels(f.labelKeys, []string{v})).ctr.float = func() float64 { return fn(v) }
	}
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, nil).getOrCreate("").gauge
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, nil, nil).getOrCreate("").gauge.fn = fn
}

// Histogram registers (or returns) the named histogram with the default
// bucket ladder.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, nil, nil).getOrCreate("").hist
}

// HistogramBuckets registers (or returns) the named histogram with an
// explicit bucket ladder (ascending finite upper bounds in the metric's
// unit; +Inf is implicit). The ladder is fixed at first registration:
// later Histogram() calls return the same handle, and later
// HistogramBuckets() calls must name the same ladder or panic.
func (r *Registry) HistogramBuckets(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, nil, buckets).getOrCreate("").hist
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labelKeys, nil)}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labelKeys, nil)}
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labelKeys, nil)}
}

// HistogramVecBuckets registers (or returns) a labeled histogram family
// with an explicit bucket ladder shared by every labeled series.
func (r *Registry) HistogramVecBuckets(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labelKeys, buckets)}
}

// OnCollect registers fn to run at the start of every exposition, before
// any series is read: the place to take one snapshot of some state and Set
// the several gauges derived from it, rather than recomputing it per gauge.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every family in registration order as
// Prometheus text exposition format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	collectors := r.collectors[:len(r.collectors):len(r.collectors)]
	r.mu.Unlock()
	for _, collect := range collectors {
		collect()
	}
	for _, f := range fams {
		f.mu.Lock()
		children := make([]*child, len(f.children))
		copy(children, f.children)
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, c := range children {
			if err := writeChild(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch f.kind {
	case kindCounter:
		if c.ctr.float != nil {
			_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, c.labels, formatFloat(c.ctr.float()))
			return err
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, c.labels, c.ctr.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, c.labels, formatFloat(c.gauge.Value()))
		return err
	default:
		cum, count, sum := c.hist.snapshot()
		for i, bound := range c.hist.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				mergeLabels(c.labels, fmt.Sprintf(`le="%s"`, formatFloat(bound))), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			mergeLabels(c.labels, `le="+Inf"`), cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, c.labels, formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, c.labels, count)
		return err
	}
}

// mergeLabels appends extra (already-rendered `k="v"`) into an existing
// rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	s := fmt.Sprintf("%g", v)
	return s
}
