// Package datalake implements the multi-modal data lake: a single catalog
// over tables, text documents, and knowledge-graph entities, with per-source
// metadata for trust scoring. Data instances — the unit of retrieval and
// verification in the paper — are addressed by stable string IDs:
//
//	table:<tableID>          a whole table
//	tuple:<tableID>#<row>    one row of a table
//	text:<docID>             a text document
//	entity:<name>            a knowledge-graph entity neighborhood
package datalake

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/table"
)

// ErrDuplicate marks ingestion of an already-present ID; callers (e.g. the
// HTTP layer) can detect it with errors.Is to distinguish client conflicts
// from internal failures.
var ErrDuplicate = errors.New("duplicate id")

// Kind classifies a data instance.
type Kind int

const (
	// KindTable is a whole relational table.
	KindTable Kind = iota
	// KindTuple is a single row of a table.
	KindTuple
	// KindText is a text document.
	KindText
	// KindEntity is a knowledge-graph entity neighborhood.
	KindEntity
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindTuple:
		return "tuple"
	case KindText:
		return "text"
	case KindEntity:
		return "entity"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Source describes a dataset contributing instances to the lake.
type Source struct {
	// ID is the stable source identifier.
	ID string
	// Name is a human-readable label ("TabFact", "WikiTable-TURL", ...).
	Name string
	// TrustPrior is the initial trustworthiness in [0,1] before the trust
	// module refines it. Defaults to 0.5 (unknown).
	TrustPrior float64
}

// Instance is a resolved data instance: exactly one of Table, Tuple, Doc, or
// Entity is populated according to Kind.
type Instance struct {
	ID       string
	Kind     Kind
	SourceID string

	Table  *table.Table
	Tuple  *table.Tuple
	Doc    *doc.Document
	Entity string
	// Graph is set for entity instances so callers can expand the
	// neighborhood.
	Graph *kg.Graph
}

// Serialize flattens the instance's content into a single string, the form
// both indexes consume.
func (in Instance) Serialize() string {
	switch in.Kind {
	case KindTable:
		return in.Table.SerializeForIndex()
	case KindTuple:
		return in.Tuple.SerializeForIndex()
	case KindText:
		return in.Doc.SerializeForIndex()
	case KindEntity:
		return in.Graph.SerializeEntity(in.Entity)
	default:
		return ""
	}
}

// Event describes one committed lake mutation, delivered in version order
// to change subscribers. Exactly one of Table, Doc, or Triple is populated
// according to Kind (KindTable, KindText, or KindEntity respectively).
type Event struct {
	// Version is the lake version the mutation committed as. It is zero
	// while the event is still a pre-commit candidate (the argument to a
	// Subscriber.Prepare call).
	Version uint64
	// Kind classifies the mutation's modality.
	Kind   Kind
	Table  *table.Table
	Doc    *doc.Document
	Triple *kg.Triple
	// Payload carries the value this subscriber's Prepare returned for the
	// mutation (nil for subscribers without a Prepare stage, and for events
	// committed before the subscriber registered). It is private to the
	// subscriber: every subscriber sees its own payload.
	Payload any
}

// Touches returns the instance kinds a committed mutation affects in the
// indexes and any derived read-side state: a table event touches both the
// whole-table and per-tuple granularities, a document event touches texts,
// and a triple event touches the subject entity's neighborhood. Consumers
// that invalidate per-kind state (e.g. a verify-result cache) key off this
// instead of treating every version bump as global.
func (ev Event) Touches() []Kind {
	switch ev.Kind {
	case KindTable:
		return []Kind{KindTable, KindTuple}
	case KindText:
		return []Kind{KindText}
	case KindEntity:
		return []Kind{KindEntity}
	default:
		return nil
	}
}

// PrepareFunc is a subscriber's pre-commit stage. It runs on the ingesting
// goroutine before the lake's write lock is taken, so expensive derivations
// (tokenization, embedding) happen outside every lock and concurrent
// writers compute them in parallel. The event has no Version yet; the
// returned payload is attached to the committed event delivered to this
// subscriber. An error aborts the ingest before anything commits.
type PrepareFunc func(Event) (any, error)

// CommitHook observes each commit section's mutations durably, before they
// take effect. It runs under the write lock with the section's staged
// events — versions assigned, catalog not yet mutated, nothing enqueued —
// so a durability layer (the write-ahead log) can persist them first. An
// error aborts the whole section: no catalog change, no event delivery,
// and the staged versions are released for the next commit. The hook must
// not call back into the lake.
type CommitHook func(evs []Event) error

// SourceHook observes source registrations the same way (sources are not
// versioned mutations, but a durable lake must persist them too). An error
// aborts the registration.
type SourceHook func(Source) error

// ApplyFunc is a subscriber's asynchronous application stage. It is invoked
// on the dispatcher goroutine in version order, with no lake locks held,
// and must call done exactly once — possibly from another goroutine — when
// the event has been fully applied (the indexer applies on the dispatcher
// and calls done before returning). The lake publishes the event's version (Version, Flush,
// ingest-caller returns) only after every subscriber's done fires. An error
// passed to done is reported to the ingest caller whose mutation it
// rejected; the catalog mutation itself stays committed — the error signals
// that a downstream consumer (e.g. an incremental indexer) lagged, not that
// the data was lost.
//
// An ApplyFunc must not ingest into the lake (AddTable and friends): the
// dispatcher that runs it is also the consumer that drains the ingest
// queue, so a reentrant write can deadlock against queue backpressure.
// Reading the lake (Resolve, Graph, Stats, ...) is allowed.
type ApplyFunc func(ev Event, done func(error))

// Subscriber is a two-stage change consumer: Prepare precomputes the
// expensive payload outside the lake's locks, Apply consumes the committed
// event asynchronously. Either field may be nil (a nil Apply makes the
// subscriber prepare-only, which is rarely useful).
type Subscriber struct {
	Prepare PrepareFunc
	Apply   ApplyFunc
}

// ErrClosed marks ingestion into a closed lake.
var ErrClosed = errors.New("datalake: lake closed")

// defaultQueueSize bounds the in-flight event queue between commit and the
// dispatcher. Writers block (holding the write lock) once the queue is
// full, so queued-event memory is bounded under ingest bursts.
const defaultQueueSize = 256

// Option configures a Lake.
type Option func(*Lake)

// WithQueueSize overrides the bounded ingest-event queue capacity
// (default 256). Larger values absorb bigger ingest bursts before
// backpressure blocks writers; smaller values bound memory tighter.
func WithQueueSize(n int) Option {
	return func(l *Lake) {
		if n > 0 {
			l.queueSize = n
		}
	}
}

// Lake is the multi-modal data lake catalog. The lake is live: ingestion is
// allowed at any time, while lookups take a shared lock, so the lake serves
// reads during writes. Every mutation bumps a monotonic version.
//
// The write path is pipelined. An ingest runs three stages:
//
//  1. prepare — subscriber Prepare funcs derive expensive payloads
//     (tokenize, embed) on the ingesting goroutine, outside every lake
//     lock, so concurrent writers prepare in parallel;
//  2. commit — the write lock covers only the catalog mutation, version
//     assignment, and enqueueing the event on a bounded ordered queue;
//  3. apply — a dispatcher goroutine delivers events to subscribers in
//     version order; a subscriber may complete its application
//     asynchronously, after its Apply returns.
//
// Version() publication — not hook ordering — provides the visibility
// guarantee: a version becomes observable only once its event is fully
// applied. The ingest entry points additionally wait for their own
// mutation's application before returning, so "AddX returned nil" still
// implies "retrievable now".
type Lake struct {
	// writeMu serializes the commit stage (catalog mutation + version
	// assignment + enqueue). It is intentionally narrow: no subscriber
	// code and no derivation work runs under it. Always acquired before mu.
	writeMu  sync.Mutex
	closed   bool // guarded by writeMu
	readOnly bool // follower mode: local writes rejected, guarded by writeMu
	// commitHook / sourceHook are the durability hooks (guarded by
	// writeMu). The commit hook runs under writeMu but outside mu, so a
	// slow fsync stalls writers, never readers.
	commitHook CommitHook
	sourceHook SourceHook

	// hooksMu guards the subscriber list; it is never held while acquiring
	// writeMu or mu, and the dispatcher holds it (shared) for the duration
	// of one event's delivery so unsubscribe can exclude in-flight calls.
	hooksMu   sync.RWMutex
	hooks     []registeredHook
	sourceObs []registeredSourceObserver
	hookSeq   int

	// events is the bounded ordered queue between commit and dispatch.
	// Sends happen under writeMu, so channel order is version order.
	events    chan queuedEvent
	queueSize int
	closeOnce sync.Once
	closeErr  error
	// dispatchDone closes when the dispatcher exits (after Close drains).
	dispatchDone chan struct{}

	mu   sync.RWMutex
	cond *sync.Cond // broadcast when processed/published advance
	// version is the last assigned (committed) version.
	version uint64
	// processed is the contiguous application watermark: every event with
	// version <= processed has completed application (successfully or not).
	processed uint64
	// published trails processed: it is the last *successfully* applied
	// version, so readers of Version() never observe a version whose
	// incremental indexing failed or is still in flight.
	published uint64
	// failed records application errors by version until the ingest caller
	// (or Flush) claims them.
	failed map[uint64]error
	// waiting counts ingest callers registered (at commit time) to claim
	// their version's application error; Flush and WaitVersion leave those
	// errors for the registered claimant instead of stealing them.
	waiting map[uint64]int
	// ahead holds completion results for versions above processed+1, so
	// out-of-order async completions advance the watermark contiguously.
	ahead map[uint64]error
	// drained flips once Close has applied the final event; waiters for
	// versions that will now never commit are woken with ErrClosed.
	drained bool

	tables  map[string]*table.Table
	docs    map[string]*doc.Document
	graph   *kg.Graph
	sources map[string]Source

	tableIDs []string
	docIDs   []string

	// m holds the ingest-stage observability handles (nil-safe no-ops
	// until SetMetrics installs real ones).
	m lakeMetrics
}

// lakeMetrics are the lake's instrumentation handles for the three ingest
// pipeline stages. All obs handles are nil-receiver-safe.
type lakeMetrics struct {
	prepareSec *obs.Histogram
	commitSec  *obs.Histogram
	applySec   *obs.Histogram
}

// SetMetrics registers the lake's ingest-stage metrics in reg and installs
// the hot-path handles. Call once during assembly, before concurrent
// ingest begins. Exported metric names are documented in README.md.
func (l *Lake) SetMetrics(reg *obs.Registry) {
	l.m = lakeMetrics{
		prepareSec: reg.Histogram("verifai_ingest_prepare_seconds", "Per-event prepare stage (tokenize + embed, outside all lake locks)."),
		commitSec:  reg.Histogram("verifai_ingest_commit_seconds", "Commit section latency (stage + durable hook + materialize + enqueue, under the write lock). Batches observe once per section."),
		applySec:   reg.Histogram("verifai_ingest_apply_seconds", "Per-event apply stage (dispatcher delivery through the last subscriber completion)."),
	}
	reg.GaugeFunc("verifai_ingest_queue_depth", "Committed events waiting in the bounded apply queue.",
		func() float64 { return float64(len(l.events)) })
}

// queuedEvent pairs a committed event with the per-subscriber payloads its
// prepare stage produced (keyed by subscriber registration id).
type queuedEvent struct {
	ev       Event
	payloads map[int]any
}

// New returns an empty lake and starts its event dispatcher. The
// dispatcher goroutine keeps the lake reachable until Close, so a
// long-lived process that discards lakes (rather than keeping one for its
// lifetime) must Close them to release the memory.
func New(opts ...Option) *Lake {
	l := &Lake{
		tables:       make(map[string]*table.Table),
		docs:         make(map[string]*doc.Document),
		graph:        kg.NewGraph(),
		sources:      make(map[string]Source),
		failed:       make(map[uint64]error),
		waiting:      make(map[uint64]int),
		ahead:        make(map[uint64]error),
		queueSize:    defaultQueueSize,
		dispatchDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(l)
	}
	l.cond = sync.NewCond(&l.mu)
	l.events = make(chan queuedEvent, l.queueSize)
	go l.dispatch()
	return l
}

// AddSource registers (or overwrites) a source description. A zero
// TrustPrior is normalized to 0.5. The returned error only ever comes from
// a durability (source) hook rejecting the registration; lakes without a
// hook always succeed. Registered source observers (OnSourceChange) run
// before the call returns.
func (l *Lake) AddSource(s Source) error {
	return l.addSource(s, false)
}

// addSource is the shared implementation behind AddSource (local writes,
// rejected on a read-only follower) and ReplicateSource (the replication
// apply path, which bypasses the read-only gate).
func (l *Lake) addSource(s Source, replica bool) error {
	if s.TrustPrior == 0 {
		s.TrustPrior = 0.5
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.readOnly && !replica {
		return ErrReadOnly
	}
	if l.sourceHook != nil {
		if err := l.sourceHook(s); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.sources[s.ID] = s
	l.mu.Unlock()
	// Notify observers under writeMu (registrations are observed in
	// serialization order) but outside mu, so observers may read the lake.
	l.hooksMu.RLock()
	obs := append([]registeredSourceObserver(nil), l.sourceObs...)
	l.hooksMu.RUnlock()
	for _, o := range obs {
		o.fn(s)
	}
	return nil
}

// registeredSourceObserver pairs a source observer with its registration
// handle.
type registeredSourceObserver struct {
	id int
	fn func(Source)
}

// OnSourceChange registers fn to observe every subsequent source
// registration (AddSource), including overwrites of an existing source —
// the one catalog mutation outside the versioned change feed. A
// trust-sensitive consumer (e.g. a verify-result cache, whose verdict
// weighting reads Source.TrustPrior) uses this to invalidate on source
// overwrites. fn runs on the registering goroutine before AddSource
// returns and must not write into the lake. The returned function
// unsubscribes (idempotent).
func (l *Lake) OnSourceChange(fn func(Source)) (unsubscribe func()) {
	l.hooksMu.Lock()
	defer l.hooksMu.Unlock()
	l.hookSeq++
	id := l.hookSeq
	l.sourceObs = append(l.sourceObs, registeredSourceObserver{id: id, fn: fn})
	return func() {
		l.hooksMu.Lock()
		defer l.hooksMu.Unlock()
		for i, o := range l.sourceObs {
			if o.id == id {
				l.sourceObs = append(l.sourceObs[:i], l.sourceObs[i+1:]...)
				return
			}
		}
	}
}

// SetCommitHook installs (or, with nil, removes) the durable commit hook.
// Install it before the writes it must cover; a recovery path replaying a
// log installs it only after replay, so replayed mutations are not
// re-logged.
func (l *Lake) SetCommitHook(h CommitHook) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.commitHook = h
}

// SetSourceHook installs (or removes) the durable source hook.
func (l *Lake) SetSourceHook(h SourceHook) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.sourceHook = h
}

// Quiesce runs fn with the lake quiesced: the write lock is held and every
// committed mutation fully applied, so no mutation can commit — and none
// can still be applying — while fn runs. version is the lake's current
// (catalog) version. fn may read the lake but must not mutate it (that
// would deadlock). Checkpoints use this to capture a consistent snapshot.
func (l *Lake) Quiesce(fn func(version uint64) error) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	for l.processed < l.version {
		l.cond.Wait()
	}
	v := l.version
	l.mu.Unlock()
	return fn(v)
}

// FastForwardVersion advances the lake's version counter to v without
// committing mutations. Recovery uses it after bulk-loading a checkpoint:
// the reloaded catalog re-committed as versions 1..n, but the write-ahead
// log's tail continues from the pre-crash version, so the counter must
// jump there for replayed (and future) mutations to reuse their original
// version numbers. It requires an idle lake (nothing in flight) and a
// target at or past the current version.
func (l *Lake) FastForwardVersion(v uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.processed != l.version {
		return fmt.Errorf("datalake: fast-forward with mutations in flight (processed %d < version %d)", l.processed, l.version)
	}
	if v < l.version {
		return fmt.Errorf("datalake: fast-forward target %d behind current version %d", v, l.version)
	}
	l.version, l.processed, l.published = v, v, v
	return nil
}

// Source returns the source metadata for id; ok is false when unknown.
func (l *Lake) Source(id string) (Source, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, ok := l.sources[id]
	return s, ok
}

// Sources returns all registered sources sorted by ID.
func (l *Lake) Sources() []Source {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Source, 0, len(l.sources))
	for _, s := range l.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// registeredHook pairs a subscriber with its registration handle so it can
// be removed again.
type registeredHook struct {
	id      int
	apply   ApplyFunc
	prepare PrepareFunc
}

// Subscribe registers a two-stage subscriber observing every subsequent
// mutation. The returned function unsubscribes it (idempotent) and blocks
// until any in-flight delivery to the subscriber has returned, so after it
// returns the subscriber's Apply is never invoked again.
func (l *Lake) Subscribe(s Subscriber) (unsubscribe func()) {
	l.hooksMu.Lock()
	defer l.hooksMu.Unlock()
	return l.subscribeLocked(s)
}

// SubscribeSync runs init and then registers s, with the lake quiesced: the
// write lock is held and the event queue fully drained across both, so no
// mutation can commit — and no committed mutation can still be applying —
// between init's snapshot of the lake and the registration. An incremental
// indexer uses this to close the gap where a concurrent ingest would be
// neither bulk-indexed nor delivered as an event. init may read the lake
// but must not mutate it (that would deadlock); an init error aborts the
// registration.
func (l *Lake) SubscribeSync(init func() error, s Subscriber) (unsubscribe func(), err error) {
	// Quiesce: every committed event has been applied before init snapshots
	// the catalog, so nothing is both snapshotted and later delivered.
	err = l.Quiesce(func(uint64) error {
		if init != nil {
			if err := init(); err != nil {
				return err
			}
		}
		l.hooksMu.Lock()
		defer l.hooksMu.Unlock()
		unsubscribe = l.subscribeLocked(s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return unsubscribe, nil
}

// subscribeLocked appends the subscriber and builds its unsubscribe
// closure. Caller holds hooksMu.
func (l *Lake) subscribeLocked(s Subscriber) func() {
	l.hookSeq++
	id := l.hookSeq
	l.hooks = append(l.hooks, registeredHook{id: id, apply: s.Apply, prepare: s.Prepare})
	return func() {
		l.hooksMu.Lock()
		defer l.hooksMu.Unlock()
		for i, rh := range l.hooks {
			if rh.id == id {
				l.hooks = append(l.hooks[:i], l.hooks[i+1:]...)
				return
			}
		}
	}
}

// Version returns the lake's monotonic mutation version (0 for an empty,
// untouched lake). Each successful AddTable/AddDocument/AddTriple bumps it
// by one, and the bump becomes visible here only after the mutation's
// incremental indexing (subscriber application) has completed — so once a
// reader observes Version() >= V, every mutation up to V whose ingest call
// returned nil is fully indexed. A mutation whose application errored (its
// ingest call returned the error) stays committed in the catalog but may
// be absent from the indexes; its own version is never published, though
// later successful mutations publish past it.
func (l *Lake) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.published
}

// dispatch is the lake's event-dispatcher goroutine: it pops committed
// events off the ordered queue and delivers each to every subscriber in
// version order. It exits when Close closes the (drained) queue.
func (l *Lake) dispatch() {
	defer close(l.dispatchDone)
	for qe := range l.events {
		l.deliver(qe)
	}
}

// deliver invokes every subscriber's Apply for one event, aggregating their
// asynchronous completions; the event's version is marked applied once all
// of them (and the dispatcher's own token) are done. hooksMu is held shared
// across the Apply calls so unsubscribe can exclude in-flight deliveries.
func (l *Lake) deliver(qe queuedEvent) {
	version := qe.ev.Version
	start := time.Now()
	// One token for the dispatcher itself, released after all Applies have
	// been started, so no early completion can fire while hooks remain.
	c := newCountdown(1, func(err error) {
		l.m.applySec.Since(start)
		l.applied(version, err)
	})
	l.hooksMu.RLock()
	for _, rh := range l.hooks {
		if rh.apply == nil {
			continue
		}
		ev := qe.ev
		ev.Payload = qe.payloads[rh.id]
		c.Add(1)
		rh.apply(ev, c.Done)
	}
	l.hooksMu.RUnlock()
	c.Done(nil)
}

// countdown aggregates several asynchronous completions into one callback:
// the final Done fires the wrapped function with the first error observed.
// The dispatcher uses it to join one event's subscriber completions.
type countdown struct {
	remaining atomic.Int32
	errMu     sync.Mutex
	err       error
	done      func(error)
}

// newCountdown returns a countdown firing done after n Done calls (plus
// any registered via Add). n must be at least 1.
func newCountdown(n int, done func(error)) *countdown {
	c := &countdown{done: done}
	c.remaining.Store(int32(n))
	return c
}

// Add registers delta additional Done calls to await. It must be called
// while the countdown is held open (before the outstanding count can
// reach zero).
func (c *countdown) Add(delta int) { c.remaining.Add(int32(delta)) }

// Done records one completion; each participant must call it exactly once.
func (c *countdown) Done(err error) {
	if err != nil {
		c.errMu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.errMu.Unlock()
	}
	if c.remaining.Add(-1) == 0 {
		c.errMu.Lock()
		first := c.err
		c.errMu.Unlock()
		c.done(first)
	}
}

// applied advances the contiguous application watermark with one event's
// completion. Completions may arrive out of order (an ApplyFunc may call
// done from another goroutine, after later events were delivered); the
// watermark only moves through versions whose predecessors are all
// applied, and publication skips failed versions.
func (l *Lake) applied(version uint64, err error) {
	l.mu.Lock()
	if err != nil {
		l.failed[version] = err
	}
	l.ahead[version] = err
	for {
		e, ok := l.ahead[l.processed+1]
		if !ok {
			break
		}
		delete(l.ahead, l.processed+1)
		l.processed++
		if e == nil {
			l.published = l.processed
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// WaitVersion blocks until the mutation committed as version v has been
// fully applied (its indexing finished, successfully or not), then returns
// the application error recorded for v, if any. An error whose ingest
// caller is still waiting for it stays reserved for that caller (this
// function reports it without claiming it); otherwise the error is
// claimed and reported once. Waiting for a version that was never
// committed blocks until it is — or returns ErrClosed once Close
// guarantees it never will be.
func (l *Lake) WaitVersion(v uint64) error {
	return l.wait(v, false)
}

// waitClaimed is WaitVersion for the ingest caller registered at commit
// time: it always claims the version's error and releases the
// registration. Its callers wait on committed versions, which Close always
// applies before draining, so the drained guard is only a safety net.
func (l *Lake) waitClaimed(v uint64) error {
	return l.wait(v, true)
}

// wait is the single wait-loop implementation behind WaitVersion (claim
// only when unreserved) and waitClaimed (always claim and deregister).
func (l *Lake) wait(v uint64, claim bool) error {
	l.mu.Lock()
	for l.processed < v {
		if l.drained {
			l.mu.Unlock()
			return ErrClosed
		}
		l.cond.Wait()
	}
	err := l.failed[v]
	if claim {
		delete(l.failed, v)
		if n := l.waiting[v]; n > 1 {
			l.waiting[v] = n - 1
		} else {
			delete(l.waiting, v)
		}
	} else if l.waiting[v] == 0 {
		delete(l.failed, v)
	}
	l.mu.Unlock()
	return err
}

// Flush blocks until every mutation accepted before the call has been
// applied (successfully or not). It returns the publication watermark —
// the same value Version() now reports; every successfully applied write
// at or below it is visible to retrieval — and any unclaimed application
// errors, joined. A mutation whose error is reported here (or was
// reported to its ingest caller) is committed in the catalog but absent
// from the indexes, at any version. Errors reserved for a still-waiting
// ingest caller are left to that caller.
func (l *Lake) Flush() (uint64, error) {
	l.mu.Lock()
	target := l.version
	for l.processed < target {
		l.cond.Wait()
	}
	var versions []uint64
	for v := range l.failed {
		if v <= target && l.waiting[v] == 0 {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	var errs []error
	for _, v := range versions {
		errs = append(errs, l.failed[v])
		delete(l.failed, v)
	}
	watermark := l.published
	l.mu.Unlock()
	return watermark, errors.Join(errs...)
}

// Close shuts ingestion down: subsequent writes are rejected with
// ErrClosed, every already-accepted write is applied (none are lost), and
// the dispatcher goroutine exits. Returns any unclaimed application errors
// from the final drain. Idempotent; concurrent calls wait for the first to
// finish. The lake remains readable after Close.
func (l *Lake) Close() error {
	l.closeOnce.Do(func() {
		l.writeMu.Lock()
		l.closed = true
		l.writeMu.Unlock()
		_, l.closeErr = l.Flush()
		close(l.events)
		<-l.dispatchDone
		// Wake waiters for versions that will now never commit.
		l.mu.Lock()
		l.drained = true
		l.mu.Unlock()
		l.cond.Broadcast()
	})
	// Wait for a concurrent first closer to finish draining.
	<-l.dispatchDone
	return l.closeErr
}

// prepare runs every subscriber's Prepare stage for a candidate event, on
// the calling (ingesting) goroutine, with no lake locks held. The hook
// list is snapshotted first so the expensive Prepare work never holds
// hooksMu — a pending Subscribe (write lock) must not stall other
// preparers or the dispatcher behind one slow item. A subscriber
// unsubscribed mid-prepare runs its Prepare once more harmlessly: deliver
// looks payloads up by the registration ids still subscribed.
func (l *Lake) prepare(ev Event) (map[int]any, error) {
	defer l.m.prepareSec.Since(time.Now())
	l.hooksMu.RLock()
	var preparers []registeredHook
	for _, rh := range l.hooks {
		if rh.prepare != nil {
			preparers = append(preparers, rh)
		}
	}
	l.hooksMu.RUnlock()
	var payloads map[int]any
	for _, rh := range preparers {
		p, err := rh.prepare(ev)
		if err != nil {
			return nil, fmt.Errorf("datalake: prepare: %w", err)
		}
		if payloads == nil {
			payloads = make(map[int]any, len(preparers))
		}
		payloads[rh.id] = p
	}
	return payloads, nil
}

// staging tracks IDs claimed earlier in the same commit section, so a
// batch with two items sharing an ID rejects the second even though the
// catalog maps are not mutated until the whole section is durable.
type staging struct {
	tables map[string]struct{}
	docs   map[string]struct{}
}

func newStaging() *staging {
	return &staging{tables: make(map[string]struct{}), docs: make(map[string]struct{})}
}

// stageLocked validates one candidate event against the catalog (and the
// section's earlier staged items) and assigns it the given version. The
// catalog itself is untouched: staging must be abortable, because the
// durable commit hook runs between staging and materialization and its
// error rolls the whole section back. Caller holds writeMu and mu (read).
func (l *Lake) stageLocked(ev *Event, version uint64, st *staging) error {
	switch ev.Kind {
	case KindTable:
		id := ev.Table.ID
		_, dup := l.tables[id]
		if !dup {
			_, dup = st.tables[id]
		}
		if dup {
			return fmt.Errorf("datalake: duplicate table id %q: %w", id, ErrDuplicate)
		}
		st.tables[id] = struct{}{}
	case KindText:
		id := ev.Doc.ID
		_, dup := l.docs[id]
		if !dup {
			_, dup = st.docs[id]
		}
		if dup {
			return fmt.Errorf("datalake: duplicate document id %q: %w", id, ErrDuplicate)
		}
		st.docs[id] = struct{}{}
	case KindEntity:
		// The graph accepts every triple.
	default:
		return fmt.Errorf("datalake: unhandled event kind %v", ev.Kind)
	}
	ev.Version = version
	return nil
}

// materializeLocked performs one staged event's catalog mutation, advances
// the version counter to the event's pre-assigned version, and registers
// the ingest caller as the claimant of the version's application error —
// before anything can complete it, so a concurrent Flush cannot steal the
// error the caller must return. Caller holds writeMu and mu.
func (l *Lake) materializeLocked(ev *Event) {
	switch ev.Kind {
	case KindTable:
		l.tables[ev.Table.ID] = ev.Table
		l.tableIDs = append(l.tableIDs, ev.Table.ID)
	case KindText:
		l.docs[ev.Doc.ID] = ev.Doc
		l.docIDs = append(l.docIDs, ev.Doc.ID)
	case KindEntity:
		l.graph.Add(*ev.Triple)
	}
	l.version = ev.Version
	l.waiting[ev.Version]++
}

// AddTable ingests a table. The table's ID must be unique. Safe to call at
// any time, including while the lake serves queries.
func (l *Lake) AddTable(t *table.Table) error {
	_, err := l.AddTableVersioned(t)
	return err
}

// AddTableVersioned is AddTable returning the lake version the mutation
// committed as, for callers correlating ingests with the change feed.
func (l *Lake) AddTableVersioned(t *table.Table) (uint64, error) {
	return l.addOne(BatchItem{Table: t})
}

// AddDocument ingests a text document. The document's ID must be unique.
// Safe to call at any time, including while the lake serves queries.
func (l *Lake) AddDocument(d *doc.Document) error {
	_, err := l.AddDocumentVersioned(d)
	return err
}

// AddDocumentVersioned is AddDocument returning the lake version the
// mutation committed as.
func (l *Lake) AddDocumentVersioned(d *doc.Document) (uint64, error) {
	return l.addOne(BatchItem{Doc: d})
}

// AddTriple ingests a knowledge-graph triple. Safe to call at any time,
// including while the lake serves queries. The returned error only ever
// comes from event application (the graph itself accepts every triple).
func (l *Lake) AddTriple(t kg.Triple) error {
	_, err := l.AddTripleVersioned(t)
	return err
}

// AddTripleVersioned is AddTriple returning the lake version the mutation
// committed as.
func (l *Lake) AddTripleVersioned(t kg.Triple) (uint64, error) {
	return l.addOne(BatchItem{Triple: &t})
}

// addOne is the single-item ingest: a one-item batch through the shared
// write path, flattened to (version, error). The version is non-zero
// whenever the item committed, even if its application then failed.
func (l *Lake) addOne(it BatchItem) (uint64, error) {
	res, err := l.addBatch([]BatchItem{it}, false)
	if err != nil {
		return 0, err
	}
	return res[0].Version, res[0].Err
}

// hasTable / hasDoc are shared-lock duplicate pre-checks.
func (l *Lake) hasTable(id string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.tables[id]
	return ok
}

func (l *Lake) hasDoc(id string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.docs[id]
	return ok
}

// Graph returns the lake's knowledge graph (shared; internally synchronized,
// so it can be queried while triples keep arriving).
func (l *Lake) Graph() *kg.Graph {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.graph
}

// Triples returns a copy of the knowledge graph's triples in insertion
// order — the same catalog surface a pinned View offers, so serializers
// (lakeio) can treat a live lake and a forked view uniformly.
func (l *Lake) Triples() []kg.Triple {
	return l.Graph().Triples()
}

// Table returns the table with the given ID.
func (l *Lake) Table(id string) (*table.Table, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	t, ok := l.tables[id]
	return t, ok
}

// Document returns the document with the given ID.
func (l *Lake) Document(id string) (*doc.Document, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d, ok := l.docs[id]
	return d, ok
}

// TableIDs returns all table IDs in insertion order (copy).
func (l *Lake) TableIDs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.tableIDs...)
}

// DocIDs returns all document IDs in insertion order (copy).
func (l *Lake) DocIDs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.docIDs...)
}

// Stats summarizes lake contents, matching the corpus statistics the paper
// reports (tables, tuples, text files).
type Stats struct {
	Tables   int
	Tuples   int
	Docs     int
	Triples  int
	Sources  int
	Entities int
}

// Stats computes the current lake statistics.
func (l *Lake) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := Stats{
		Tables:  len(l.tables),
		Docs:    len(l.docs),
		Triples: l.graph.Len(),
		Sources: len(l.sources),
	}
	for _, t := range l.tables {
		s.Tuples += t.NumRows()
	}
	s.Entities = len(l.graph.Entities())
	return s
}

// --- instance addressing ---

// TableInstanceID returns the instance ID of a whole table.
func TableInstanceID(tableID string) string { return "table:" + tableID }

// TupleInstanceID returns the instance ID of row `row` of a table.
func TupleInstanceID(tableID string, row int) string {
	return "tuple:" + tableID + "#" + strconv.Itoa(row)
}

// TextInstanceID returns the instance ID of a document.
func TextInstanceID(docID string) string { return "text:" + docID }

// EntityInstanceID returns the instance ID of a KG entity neighborhood.
func EntityInstanceID(entity string) string { return "entity:" + entity }

// KindOf parses the kind prefix of an instance ID.
func KindOf(instanceID string) (Kind, bool) {
	switch {
	case strings.HasPrefix(instanceID, "table:"):
		return KindTable, true
	case strings.HasPrefix(instanceID, "tuple:"):
		return KindTuple, true
	case strings.HasPrefix(instanceID, "text:"):
		return KindText, true
	case strings.HasPrefix(instanceID, "entity:"):
		return KindEntity, true
	default:
		return 0, false
	}
}

// Resolve maps an instance ID to its content. It returns an error for
// malformed IDs or IDs referencing missing data — a resolution failure
// indicates index/lake drift, which callers surface rather than skip.
func (l *Lake) Resolve(instanceID string) (Instance, error) {
	kind, ok := KindOf(instanceID)
	if !ok {
		return Instance{}, fmt.Errorf("datalake: malformed instance id %q", instanceID)
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	switch kind {
	case KindTable:
		id := strings.TrimPrefix(instanceID, "table:")
		t, ok := l.tables[id]
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown table %q", id)
		}
		return Instance{ID: instanceID, Kind: KindTable, SourceID: t.SourceID, Table: t}, nil
	case KindTuple:
		rest := strings.TrimPrefix(instanceID, "tuple:")
		hash := strings.LastIndexByte(rest, '#')
		if hash < 0 {
			return Instance{}, fmt.Errorf("datalake: malformed tuple id %q", instanceID)
		}
		tableID := rest[:hash]
		row, err := strconv.Atoi(rest[hash+1:])
		if err != nil {
			return Instance{}, fmt.Errorf("datalake: malformed tuple row in %q: %w", instanceID, err)
		}
		t, ok := l.tables[tableID]
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown table %q", tableID)
		}
		tp, ok := t.TupleAt(row)
		if !ok {
			return Instance{}, fmt.Errorf("datalake: row %d out of range for table %q", row, tableID)
		}
		return Instance{ID: instanceID, Kind: KindTuple, SourceID: t.SourceID, Tuple: &tp}, nil
	case KindText:
		id := strings.TrimPrefix(instanceID, "text:")
		d, ok := l.docs[id]
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown document %q", id)
		}
		return Instance{ID: instanceID, Kind: KindText, SourceID: d.SourceID, Doc: d}, nil
	case KindEntity:
		name := strings.TrimPrefix(instanceID, "entity:")
		ts := l.graph.About(name)
		if len(ts) == 0 {
			return Instance{}, fmt.Errorf("datalake: unknown entity %q", name)
		}
		src := ts[0].SourceID
		return Instance{ID: instanceID, Kind: KindEntity, SourceID: src, Entity: name, Graph: l.graph}, nil
	default:
		return Instance{}, fmt.Errorf("datalake: unhandled kind %v", kind)
	}
}
