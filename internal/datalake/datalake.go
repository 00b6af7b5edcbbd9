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
	// prepared before the subscriber registered). It is private to the
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
// events — versions assigned, catalog not yet mutated, nothing applied —
// so a durability layer (the write-ahead log) can persist them first. An
// error aborts the whole section: no catalog change, no event delivery,
// and the staged versions are released for the next commit. The hook must
// not call back into the lake.
type CommitHook func(evs []Event) error

// SourceHook observes source registrations the same way (sources are not
// versioned mutations, but a durable lake must persist them too). An error
// aborts the registration.
type SourceHook func(Source) error

// ApplyFunc is a subscriber's application stage. It runs on the committing
// goroutine in version order, after the write lock is released but while
// the section holds the apply lock, and the event is applied when it
// returns: the lake publishes the event's version (Version, Flush,
// ingest-caller returns) only after every subscriber's Apply has returned.
// A returned error is reported to the ingest caller whose mutation it
// rejected; the catalog mutation itself stays committed — the error
// signals that a downstream consumer (e.g. an incremental indexer) lagged,
// not that the data was lost.
//
// An ApplyFunc must not write into the lake (AddTable and friends) or wait
// on it (Flush, Quiesce): the next section waits for the apply lock while
// holding the write lock, so either would deadlock. Reading the lake
// (Resolve, Graph, Stats, ...) is allowed.
type ApplyFunc func(Event) error

// Subscriber is a change consumer: Prepare precomputes the expensive
// payload outside the lake's locks, Apply consumes the committed event, and
// Source observes source registrations. Any field may be nil.
type Subscriber struct {
	Prepare PrepareFunc
	Apply   ApplyFunc
	// Source observes every source registration (AddSource and
	// ReplicateSource), overwrites of an existing source included — the
	// one catalog mutation outside the versioned change feed. A
	// trust-sensitive consumer (e.g. a verify-result cache, whose verdict
	// weighting reads Source.TrustPrior) uses it to invalidate. It runs on
	// the registering goroutine before the registration returns and must
	// not write into the lake.
	Source func(Source)
}

// ErrClosed marks ingestion into a closed lake.
var ErrClosed = errors.New("datalake: lake closed")

// Lake is the multi-modal data lake catalog. The lake is live: ingestion is
// allowed at any time, while lookups take a shared lock, so the lake serves
// reads during writes. Every mutation bumps a monotonic version.
//
// The write path is pipelined. An ingest runs three stages, all on the
// ingesting goroutine:
//
//  1. prepare — subscriber Prepare funcs derive expensive payloads
//     (tokenize, embed) outside every lake lock, so concurrent writers
//     prepare in parallel;
//  2. commit — the write lock covers only the catalog mutation, version
//     assignment and the durable hook, and hands over to the apply lock
//     before it is released;
//  3. apply — under the apply lock the section delivers its events to
//     subscribers in version order; an event is applied once every
//     subscriber's Apply has returned.
//
// The next section commits (and fsyncs) while this one applies, then waits
// for the apply lock, so events apply in version order. Version()
// publication provides the visibility guarantee: a version becomes
// observable only once its event is fully applied. The ingest entry points
// return after their own section has applied, so "AddX returned nil"
// implies "retrievable now".
type Lake struct {
	// writeMu serializes the commit stage (catalog mutation + version
	// assignment + durable hook). It is intentionally narrow: no Prepare or
	// Apply code and no derivation work runs under it (Source observers
	// do, so they see registrations in order). Always acquired before
	// applyMu, and both before mu.
	writeMu sync.Mutex
	// applyMu is held by the section delivering its events. A section takes
	// it before releasing writeMu, so sections apply in commit order.
	applyMu  sync.Mutex
	closed   bool // guarded by writeMu
	readOnly bool // follower mode: local writes rejected, guarded by writeMu
	// commitHook / sourceHook are the durability hooks (guarded by
	// writeMu). The commit hook runs under writeMu but outside mu, so a
	// slow fsync stalls writers, never readers.
	commitHook CommitHook
	sourceHook SourceHook

	// hooksMu guards the subscriber list; it is never held while acquiring
	// writeMu or applyMu. Delivery and source registration hold it shared
	// while calling into subscribers, so unsubscribe can exclude in-flight
	// calls.
	hooksMu sync.RWMutex
	hooks   []registeredHook
	hookSeq int

	mu   sync.RWMutex
	cond *sync.Cond // broadcast when processed/published advance
	// version is the last assigned (committed) version.
	version uint64
	// processed is the application watermark: every event with version <=
	// processed has completed application (successfully or not).
	processed uint64
	// published trails processed: it is the last *successfully* applied
	// version, so readers of Version() never observe a version whose
	// incremental indexing failed or is still in flight.
	published uint64
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
		commitSec:  reg.Histogram("verifai_ingest_commit_seconds", "Commit section latency (stage + durable hook + materialize, under the write lock, through the hand-off to apply, which waits for the previous section). Batches observe once per section."),
		applySec:   reg.Histogram("verifai_ingest_apply_seconds", "Per-event apply stage (delivery through the last subscriber's Apply)."),
	}
}

// New returns an empty lake. It starts no goroutine: every stage of an
// ingest runs on the ingesting goroutine.
func New() *Lake {
	l := &Lake{
		tables:  make(map[string]*table.Table),
		docs:    make(map[string]*doc.Document),
		graph:   kg.NewGraph(),
		sources: make(map[string]Source),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// AddSource registers (or overwrites) a source description. A zero
// TrustPrior is normalized to 0.5. The returned error only ever comes from
// a durability (source) hook rejecting the registration; lakes without a
// hook always succeed. Every subscriber's Source observer runs before the
// call returns.
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
	// hooksMu is held shared across the calls, as in deliver, so an
	// unsubscribe that has returned excludes every later call.
	l.hooksMu.RLock()
	defer l.hooksMu.RUnlock()
	for _, rh := range l.hooks {
		if rh.Source != nil {
			rh.Source(s)
		}
	}
	return nil
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

// Quiesce runs fn with the lake quiesced: the write and apply locks are
// held, so every committed mutation is fully applied and none can commit
// while fn runs. version is the lake's current (catalog) version. fn may
// read the lake but must not mutate it (that would deadlock). Checkpoints
// use this to capture a consistent snapshot.
func (l *Lake) Quiesce(fn func(version uint64) error) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	return fn(l.CommittedVersion())
}

// FastForwardVersion advances the lake's version counter to v without
// committing mutations. Recovery uses it after bulk-loading a checkpoint:
// the reloaded catalog re-committed as versions 1..n, but the write-ahead
// log's tail continues from the pre-crash version, so the counter must
// jump there for replayed (and future) mutations to reuse their original
// version numbers. It waits out the section applying, if any, and requires
// a target at or past the current version.
func (l *Lake) FastForwardVersion(v uint64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
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
	id int
	Subscriber
}

// Subscribe runs init (if non-nil) and then registers s, with the lake
// quiesced (see Quiesce) across both, so no mutation can commit — and no
// committed mutation can still be applying — between init's snapshot of
// the lake and the registration. An
// incremental indexer uses this to close the gap where a concurrent ingest
// would be neither bulk-indexed nor delivered as an event. init may read
// the lake but must not mutate it (that would deadlock); an init error
// aborts the registration.
//
// The returned function unsubscribes s (idempotent) and blocks until any
// in-flight call into it has returned, so after it returns neither Apply
// nor Source is invoked again. Apply and Source must not call it (that
// would deadlock).
func (l *Lake) Subscribe(init func() error, s Subscriber) (unsubscribe func(), err error) {
	err = l.Quiesce(func(uint64) error {
		if init != nil {
			if err := init(); err != nil {
				return err
			}
		}
		l.hooksMu.Lock()
		defer l.hooksMu.Unlock()
		l.hookSeq++
		id := l.hookSeq
		l.hooks = append(l.hooks, registeredHook{id: id, Subscriber: s})
		unsubscribe = func() {
			l.hooksMu.Lock()
			defer l.hooksMu.Unlock()
			for i, rh := range l.hooks {
				if rh.id == id {
					l.hooks = append(l.hooks[:i], l.hooks[i+1:]...)
					return
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return unsubscribe, nil
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

// deliver invokes every subscriber's Apply for one event, in registration
// order, then advances the application watermark past the event and
// returns the first error any Apply returned. Events arrive in version
// order, so the watermark moves one version at a time; publication skips
// failed versions. hooksMu is held shared across the Apply calls so
// unsubscribe can exclude in-flight deliveries. Caller holds applyMu.
func (l *Lake) deliver(ev Event, payloads map[int]any) error {
	start := time.Now()
	var first error
	l.hooksMu.RLock()
	for _, rh := range l.hooks {
		if rh.Apply == nil {
			continue
		}
		ev.Payload = payloads[rh.id]
		if err := rh.Apply(ev); err != nil && first == nil {
			first = err
		}
	}
	l.hooksMu.RUnlock()
	l.m.applySec.Since(start)
	l.mu.Lock()
	l.processed = ev.Version
	if first == nil {
		l.published = l.processed
	}
	l.mu.Unlock()
	l.cond.Broadcast()
	return first
}

// Flush blocks until every mutation accepted before the call has been
// applied (successfully or not) and returns the publication watermark —
// the same value Version() now reports; every successfully applied write
// at or below it is visible to retrieval. Application errors go to the
// ingest caller whose mutation failed, so the error is always nil.
func (l *Lake) Flush() (uint64, error) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	return l.Version(), nil
}

// Close shuts ingestion down: subsequent writes are rejected with
// ErrClosed and the section already applying finishes (no accepted write
// is lost). Application errors go to the ingest callers, so the error is
// always nil. Idempotent. The lake remains readable after Close.
func (l *Lake) Close() error {
	l.writeMu.Lock()
	l.closed = true
	l.writeMu.Unlock()
	// No section can commit now; wait out the one applying, if any.
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	// Wake waiters for versions that will now never commit.
	l.mu.Lock()
	l.drained = true
	l.mu.Unlock()
	l.cond.Broadcast()
	return nil
}

// prepare runs every subscriber's Prepare stage for a candidate event, on
// the calling (ingesting) goroutine, with no lake locks held. The hook
// list is snapshotted first so the expensive Prepare work never holds
// hooksMu — a pending Subscribe (write lock) must not stall other
// preparers or a delivery behind one slow item. A subscriber
// unsubscribed mid-prepare runs its Prepare once more harmlessly: deliver
// looks payloads up by the registration ids still subscribed.
func (l *Lake) prepare(ev Event) (map[int]any, error) {
	defer l.m.prepareSec.Since(time.Now())
	l.hooksMu.RLock()
	var preparers []registeredHook
	for _, rh := range l.hooks {
		if rh.Prepare != nil {
			preparers = append(preparers, rh)
		}
	}
	l.hooksMu.RUnlock()
	var payloads map[int]any
	for _, rh := range preparers {
		p, err := rh.Prepare(ev)
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

// materializeLocked performs one staged event's catalog mutation and
// advances the version counter to the event's pre-assigned version. Caller
// holds writeMu and mu.
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
	res, err := l.addBatch([]BatchItem{it}, localWrite)
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
