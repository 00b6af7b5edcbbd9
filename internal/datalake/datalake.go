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
	"runtime/debug"
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
// payload outside the lake's locks, Apply consumes the committed event,
// Seal follows the lake's seals, and Source observes source
// registrations. Any field may be nil.
type Subscriber struct {
	Prepare PrepareFunc
	Apply   ApplyFunc
	// Seal runs each time the lake has sealed its tail: when a section
	// has applied and the payload committed since the last seal has
	// passed SealBytes, and at every Fork. It runs as Apply does, on that
	// goroutine under the apply lock (at a Fork, with the lake quiesced),
	// and is where a consumer moves what it derived from the tail off the
	// Go heap too (e.g. an indexer sealing its deltas).
	Seal func()
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
// The lake seals by size: once a section has applied and the payload
// committed since the last seal has passed SealBytes, that section's
// goroutine moves the tables and documents it holds as Go objects — the
// tail — into a sealed segment off the Go heap, and every subscriber's
// Seal follows; every Fork seals what is left first. Table, Document and
// Resolve hand out heap copies of sealed instances, so nothing a caller
// holds points into a segment; ResolveBorrowed lends views of them for
// the length of one call. Those committed since the last seal are
// the Go objects that were ingested.
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

	cat     catalog
	graph   *kg.Graph
	sources map[string]Source
	// unsealed is the payload committed since the last seal: the bytes of
	// the strings of the tables, documents and triples.
	unsealed int
	// releasing is set while a goroutine hands a seal's freed heap back
	// to the OS (releaseFreed).
	releasing atomic.Bool

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
	sealSec    *obs.Histogram
	merges     *obs.Counter
}

// SetMetrics registers the lake's ingest-stage metrics in reg and installs
// the hot-path handles. Call once during assembly, before concurrent
// ingest begins. Exported metric names are documented in README.md.
func (l *Lake) SetMetrics(reg *obs.Registry) {
	l.m = lakeMetrics{
		prepareSec: reg.Histogram("verifai_ingest_prepare_seconds", "Per-event prepare stage (tokenize + embed, outside all lake locks)."),
		commitSec:  reg.Histogram("verifai_ingest_commit_seconds", "Commit section latency (stage + durable hook + materialize, under the write lock, through the hand-off to apply, which waits for the previous section). Batches observe once per section."),
		applySec:   reg.Histogram("verifai_ingest_apply_seconds", "Per-event apply stage (delivery through the last subscriber's Apply)."),
		sealSec:    reg.Histogram("verifai_tail_seal_seconds", "Seals of the tail, by size or at a fork: the lake's segment and every subscriber's Seal (the indexes' deltas)."),
		merges:     reg.Counter("verifai_catalog_merges_total", "Catalog segment merges: the two newest segments merged after a seal while the newer holds at least half the instances of the older."),
	}
}

// New returns an empty lake. It starts no goroutine: every stage of an
// ingest runs on the ingesting goroutine.
func New() *Lake {
	l := &Lake{
		cat:     newCatalog(),
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
		dup := l.cat.hasTable(id)
		if !dup {
			_, dup = st.tables[id]
		}
		if dup {
			return fmt.Errorf("datalake: duplicate table id %q: %w", id, ErrDuplicate)
		}
		st.tables[id] = struct{}{}
	case KindText:
		id := ev.Doc.ID
		dup := l.cat.hasDoc(id)
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
		l.cat.addTable(ev.Table)
		l.unsealed += tablePayload(ev.Table)
	case KindText:
		l.cat.addDoc(ev.Doc)
		l.unsealed += docPayload(ev.Doc)
	case KindEntity:
		l.graph.Add(*ev.Triple)
		tr := ev.Triple
		l.unsealed += len(tr.Subject) + len(tr.Predicate) + len(tr.Object) + len(tr.SourceID)
	}
	l.version = ev.Version
}

// SealBytes is the payload — the bytes of the strings of the tables,
// documents and triples — committed since the last seal past which the
// section that commits it seals the tail. A seal costs time in proportion
// to it on the committing goroutine; the tail holds the Go heap it stands
// for, several times the payload once the indexes' deltas are counted.
const SealBytes = 256 << 10

// sealIfFull seals the tail when the payload committed since the last
// seal has passed SealBytes. The caller holds applyMu, with its section
// applied. A failed seal leaves the tail as Go objects, and the next
// section tries again. After a section of one write, the seal's freed
// heap goes back to the OS at once (releaseFreed): writes one at a time
// allocate too little to bring the collector round soon, where a batch
// (a seed, a replay) keeps it busy.
func (l *Lake) sealIfFull(single bool) {
	l.mu.RLock()
	full := l.unsealed >= SealBytes
	l.mu.RUnlock()
	if full && l.seal() == nil && single {
		l.releaseFreed()
	}
}

// seal moves the tables and documents the lake holds as Go objects — those
// committed since the last seal — into a new segment off the Go heap
// (catalog.sealTail), then runs every subscriber's Seal. What the lake
// holds is unchanged; only its form is. The caller holds applyMu, which
// serializes seals, so only commits run alongside, and they only append
// to the tail.
func (l *Lake) seal() error {
	start := time.Now()
	l.mu.RLock()
	c := catalog{segs: cut(l.cat.segs), tables: cut(l.cat.tables), docs: cut(l.cat.docs)}
	sealed := l.unsealed
	l.mu.RUnlock()
	if sealed == 0 && len(c.tables)+len(c.docs) == 0 {
		return nil // nothing committed since the last seal
	}
	var segs []*segment
	if len(c.tables)+len(c.docs) > 0 {
		var err error
		if segs, err = c.sealTail(); err != nil {
			return fmt.Errorf("datalake: seal: %w", err)
		}
		l.m.merges.Add(uint64(len(c.segs) + 1 - len(segs)))
	}
	l.mu.Lock()
	if segs != nil {
		l.cat = l.cat.withSegs(segs)
	}
	l.unsealed -= sealed
	l.mu.Unlock()
	l.hooksMu.RLock()
	for _, rh := range l.hooks {
		if rh.Seal != nil {
			rh.Seal()
		}
	}
	l.hooksMu.RUnlock()
	l.m.sealSec.Since(start)
	return nil
}

// releaseFreed returns the Go heap a seal has freed to the OS, off the
// sealing goroutine. A seal leaves the tail's objects and the new
// segments' staging as several MB of garbage, which the collector frees
// only at its next cycle and the scavenger returns only after that: late,
// when requests allocate little, so the process stays that much larger in
// the meantime. A seal while a release runs starts no other.
func (l *Lake) releaseFreed() {
	if l.releasing.CompareAndSwap(false, true) {
		go func() {
			debug.FreeOSMemory()
			l.releasing.Store(false)
		}()
	}
}

// TailBytes estimates the Go heap the lake's tail holds: the tables and
// documents committed since the last seal, with their catalog entries.
func (l *Lake) TailBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cat.tailHeapBytes()
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
	return l.cat.hasTable(id)
}

func (l *Lake) hasDoc(id string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cat.hasDoc(id)
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

// Table returns the table with the given ID. A table committed before the
// last seal is sealed, and each call returns a fresh copy of it; one
// committed since is the object that was ingested.
func (l *Lake) Table(id string) (*table.Table, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cat.table(id, nil)
}

// Document returns the document with the given ID: a fresh copy when it is
// sealed, as Table.
func (l *Lake) Document(id string) (*doc.Document, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cat.document(id, nil)
}

// TableIDs returns all table IDs in insertion order (copy).
func (l *Lake) TableIDs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.cat.tableIDs...)
}

// DocIDs returns all document IDs in insertion order (copy).
func (l *Lake) DocIDs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.cat.docIDs...)
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
	return Stats{
		Tables:   len(l.cat.tableIDs),
		Tuples:   l.cat.numTuples(),
		Docs:     len(l.cat.docIDs),
		Triples:  l.graph.Len(),
		Sources:  len(l.sources),
		Entities: len(l.graph.Entities()),
	}
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
// indicates index/lake drift, which callers surface rather than skip. A
// sealed table, tuple or document resolves to a fresh copy.
func (l *Lake) Resolve(instanceID string) (Instance, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.resolveLocked(instanceID, nil)
}

// resolveLocked is Resolve, or with b a borrowing resolve (see
// ResolveBorrowed). The caller holds mu.
func (l *Lake) resolveLocked(instanceID string, b *borrowBuf) (Instance, error) {
	kind, ok := KindOf(instanceID)
	if !ok {
		return Instance{}, fmt.Errorf("datalake: malformed instance id %q", instanceID)
	}
	if kind != KindEntity {
		return l.cat.resolve(instanceID, kind, nil, b)
	}
	name := strings.TrimPrefix(instanceID, "entity:")
	ts := l.graph.About(name)
	if len(ts) == 0 {
		return Instance{}, fmt.Errorf("datalake: unknown entity %q", name)
	}
	return Instance{ID: instanceID, Kind: KindEntity, SourceID: ts[0].SourceID, Entity: name, Graph: l.graph}, nil
}
