package datalake

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// BatchItem is one mutation in an AddBatch call. Exactly one field must be
// set; its modality determines the event kind.
type BatchItem struct {
	Table  *table.Table
	Doc    *doc.Document
	Triple *kg.Triple
}

// BatchItemResult is the per-item outcome of an AddBatch call: the lake
// version the item committed as, or the error that rejected it (duplicate
// ID, empty ID, malformed item) or failed its application.
type BatchItemResult struct {
	Version uint64
	Err     error
}

// AddBatch ingests a mixed batch of tables, documents, and triples through
// the pipelined write path, amortizing the commit stage: subscriber
// prepare work (tokenization, embedding) fans out across a bounded worker
// pool, then a single write-lock acquisition commits every valid item and
// assigns contiguous versions. Items are committed in slice order, so the
// change feed observes them in order.
//
// Item failures are independent: a duplicate or malformed item is reported
// in its BatchItemResult without affecting the rest of the batch. The call
// returns after every committed item has been applied (indexed); the
// batch-level errors are ErrClosed and, on a follower, ErrReadOnly.
func (l *Lake) AddBatch(items []BatchItem) ([]BatchItemResult, error) {
	return l.addBatch(items, localWrite)
}

// Load returns a new lake holding sources and items, ingested as one batch
// (versions 1..n in item order): what every deserializer of a stored
// catalog ends with. A table is loaded as it was stored, even with a row
// shorter than its header, which AddBatch rejects; any rejected item fails
// the whole load.
func Load(sources []Source, items []BatchItem) (*Lake, error) {
	l := New()
	for _, src := range sources {
		if err := l.AddSource(src); err != nil {
			return nil, err
		}
	}
	// One pipelined ingest: a single write-lock acquisition commits every
	// item, instead of one commit+apply round trip per instance.
	results, err := l.addBatch(items, storedCatalog)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	return l, nil
}

// LoadColumns returns a new lake holding sources, the tables and documents
// cols holds, sealed into one segment off the Go heap, and triples: what
// a stored catalog loads as. Like Load it counts versions 1..n over the
// tables, documents and triples, and a table loads as it was stored; an
// empty or repeated ID fails the load.
func LoadColumns(sources []Source, cols Columns, triples []kg.Triple) (*Lake, error) {
	seg, err := newSegment(cols)
	if err != nil {
		return nil, err
	}
	l := New()
	for _, src := range sources {
		if err := l.AddSource(src); err != nil {
			return nil, err
		}
	}
	if seg.numTables()+seg.numDocs() > 0 {
		l.cat.tableIDs, l.cat.docIDs = seg.strings(colTableID), seg.strings(colDocID)
		l.cat.tableOrd, l.cat.docOrd = make(map[string]int, seg.numTables()), make(map[string]int, seg.numDocs())
		l.cat = l.cat.withSegs([]*segment{seg})
	}
	if err := indexIDs(l.cat.tableOrd, l.cat.tableIDs, "table"); err != nil {
		return nil, err
	}
	if err := indexIDs(l.cat.docOrd, l.cat.docIDs, "document"); err != nil {
		return nil, err
	}
	for _, tr := range triples {
		l.graph.Add(tr)
	}
	n := uint64(len(l.cat.tableIDs) + len(l.cat.docIDs) + len(triples))
	l.version, l.processed, l.published = n, n, n
	return l, nil
}

// indexIDs maps each of ids to its position in ord, rejecting an empty or
// repeated ID as AddBatch would.
func indexIDs(ord map[string]int, ids []string, what string) error {
	for i, id := range ids {
		if id == "" {
			return fmt.Errorf("datalake: %s with empty ID", what)
		}
		if _, dup := ord[id]; dup {
			return fmt.Errorf("datalake: duplicate %s id %q: %w", what, id, ErrDuplicate)
		}
		ord[id] = i
	}
	return nil
}

// batchSource says where the items of an addBatch call come from.
type batchSource int

const (
	localWrite    batchSource = iota // AddBatch and the single-item adds
	replicated                       // a leader's events: past a follower's read-only gate
	storedCatalog                    // Load: tables as they were stored, ragged rows included
)

// addBatch is the shared implementation behind AddBatch (local writes),
// ReplicateBatch (the replication apply path, which bypasses the follower's
// read-only gate but is otherwise the identical pipeline — replicated
// events prepare, commit, and apply exactly like local ingests, so index
// maintenance and cache watermarks behave identically on both roles) and
// Load.
func (l *Lake) addBatch(items []BatchItem, src batchSource) ([]BatchItemResult, error) {
	results := make([]BatchItemResult, len(items))
	if len(items) == 0 {
		return results, nil
	}

	// Stage 1: validate shape and build candidate events. An ID already in
	// the catalog is rejected here, before stage 2 pays for its embedding;
	// staging re-checks under the write lock, which also catches two items
	// of one section sharing an ID.
	evs := make([]Event, len(items))
	for i, it := range items {
		switch {
		case it.Table != nil && it.Doc == nil && it.Triple == nil:
			if it.Table.ID == "" {
				results[i].Err = fmt.Errorf("datalake: table with empty ID")
				continue
			}
			if err := checkRows(it.Table); err != nil && src != storedCatalog {
				results[i].Err = err
				continue
			}
			if l.hasTable(it.Table.ID) {
				results[i].Err = fmt.Errorf("datalake: duplicate table id %q: %w", it.Table.ID, ErrDuplicate)
				continue
			}
			evs[i] = Event{Kind: KindTable, Table: it.Table}
		case it.Doc != nil && it.Table == nil && it.Triple == nil:
			if it.Doc.ID == "" {
				results[i].Err = fmt.Errorf("datalake: document with empty ID")
				continue
			}
			if l.hasDoc(it.Doc.ID) {
				results[i].Err = fmt.Errorf("datalake: duplicate document id %q: %w", it.Doc.ID, ErrDuplicate)
				continue
			}
			evs[i] = Event{Kind: KindText, Doc: it.Doc}
		case it.Triple != nil && it.Table == nil && it.Doc == nil:
			evs[i] = Event{Kind: KindEntity, Triple: it.Triple}
		default:
			results[i].Err = fmt.Errorf("datalake: batch item %d must set exactly one of Table, Doc, Triple", i)
		}
	}

	// Stage 2: run subscriber prepare stages in parallel across items on a
	// bounded pool — the expensive embedding/tokenization work happens here,
	// outside every lake lock.
	payloads := make([]map[int]any, len(items))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			if results[i].Err != nil {
				continue
			}
			payloads[i], results[i].Err = l.prepare(evs[i])
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					payloads[i], results[i].Err = l.prepare(evs[i])
				}
			}()
		}
		for i := range items {
			if results[i].Err == nil {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
	}

	// Stages 3 and 4: commit every valid item under one write-lock
	// acquisition, then apply them.
	return results, l.commitSection(evs, payloads, results, src == replicated)
}

// checkRows rejects a table with a row shorter than its header: a tuple
// is read cell by column, so such a row has no value for some attribute.
// A wider row is accepted: its extra cells are indexed with the table, and
// a write-ahead log replayed through AddBatch may hold such tables.
func checkRows(t *table.Table) error {
	for r, row := range t.Rows {
		if len(row) < len(t.Columns) {
			return fmt.Errorf("datalake: table %q row %d has %d cells, its header %d columns", t.ID, r, len(row), len(t.Columns))
		}
	}
	return nil
}

// commitSection runs the lake's one commit section (commit), then delivers
// the committed events on the calling goroutine, in version order, under
// the applyMu that commit handed over. A committed item's version lands in
// results[i].Version and its application error in results[i].Err; the
// returned error is ErrClosed or ErrReadOnly.
func (l *Lake) commitSection(evs []Event, payloads []map[int]any, results []BatchItemResult, replica bool) error {
	staged, err := l.commit(evs, results, replica)
	if len(staged) == 0 {
		return err
	}
	defer l.applyMu.Unlock()
	for _, i := range staged {
		results[i].Err = l.deliver(evs[i], payloads[i])
	}
	l.sealIfFull(len(staged) == 1)
	return nil
}

// commit takes the write lock once, stages every still-valid item
// (versions contiguous in slice order, catalog untouched), lets the
// durable hook (if any) persist the whole section with one append+sync,
// and only then materializes the mutations — a hook failure rolls the
// entire section back with the staged versions released, reported in each
// staged item's result. The hook runs without mu so readers stay
// unblocked during an fsync. When items materialized, commit returns their
// indexes holding applyMu, taken before writeMu is released: the next
// section commits while this one applies, and sections apply in commit
// order.
func (l *Lake) commit(evs []Event, results []BatchItemResult, replica bool) ([]int, error) {
	defer l.m.commitSec.Since(time.Now())
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.readOnly && !replica {
		return nil, ErrReadOnly
	}
	staged := make([]int, 0, len(evs))
	st := newStaging()
	l.mu.RLock()
	next := l.version + 1
	for i := range evs {
		if results[i].Err != nil {
			continue
		}
		if err := l.stageLocked(&evs[i], next, st); err != nil {
			results[i].Err = err
			continue
		}
		staged = append(staged, i)
		next++
	}
	l.mu.RUnlock()
	if len(staged) == 0 {
		return nil, nil
	}
	if l.commitHook != nil {
		hookEvs := make([]Event, len(staged))
		for n, i := range staged {
			hookEvs[n] = evs[i]
		}
		if err := l.commitHook(hookEvs); err != nil {
			for _, i := range staged {
				results[i].Err = err
			}
			return nil, nil
		}
	}
	l.mu.Lock()
	for _, i := range staged {
		l.materializeLocked(&evs[i])
		results[i].Version = evs[i].Version
	}
	l.mu.Unlock()
	l.applyMu.Lock()
	return staged, nil
}
