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
	return l.addBatch(items, false)
}

// Load returns a new lake holding sources and items, ingested as one batch
// (versions 1..n in item order): what every deserializer of a stored
// catalog ends with. Any rejected item fails the whole load. The lake runs
// a dispatcher goroutine; callers that discard it should Close it.
func Load(sources []Source, items []BatchItem) (*Lake, error) {
	l := New()
	err := func() error {
		for _, src := range sources {
			if err := l.AddSource(src); err != nil {
				return err
			}
		}
		// One pipelined ingest: a single write-lock acquisition commits
		// every item, instead of one commit+wait round trip per instance.
		results, err := l.AddBatch(items)
		if err != nil {
			return err
		}
		for _, res := range results {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}()
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	return l, nil
}

// addBatch is the shared implementation behind AddBatch (local writes) and
// ReplicateBatch (the replication apply path, which bypasses the follower's
// read-only gate but is otherwise the identical pipeline — replicated
// events prepare, commit, and apply exactly like local ingests, so index
// maintenance and cache watermarks behave identically on both roles).
func (l *Lake) addBatch(items []BatchItem, replica bool) ([]BatchItemResult, error) {
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

	// Stage 3: commit every valid item under one write-lock acquisition.
	if err := l.commitSection(evs, payloads, results, replica); err != nil {
		return results, err
	}

	// Stage 4: await application of every committed item (ascending, so
	// only the tail wait actually blocks) and claim its application error.
	for i := range results {
		if results[i].Version == 0 {
			continue
		}
		if err := l.waitClaimed(results[i].Version); err != nil {
			results[i].Err = err
		}
	}
	return results, nil
}

// commitSection is the lake's one commit section: a single write-lock
// acquisition stages every still-valid item (versions contiguous in slice
// order, catalog untouched), the durable hook (if any) persists the whole
// section with one append+sync, and only then do the mutations materialize
// and enqueue — a hook failure rolls the entire section back with the
// staged versions released, reported in each staged item's result. The hook
// runs without mu so readers stay unblocked during an fsync. A committed
// item's version lands in results[i].Version; the returned error is
// ErrClosed or ErrReadOnly.
func (l *Lake) commitSection(evs []Event, payloads []map[int]any, results []BatchItemResult, replica bool) error {
	defer l.m.commitSec.Since(time.Now())
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.readOnly && !replica {
		return ErrReadOnly
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
	if l.commitHook != nil && len(staged) > 0 {
		hookEvs := make([]Event, len(staged))
		for n, i := range staged {
			hookEvs[n] = evs[i]
		}
		if err := l.commitHook(hookEvs); err != nil {
			for _, i := range staged {
				results[i].Err = err
			}
			return nil
		}
	}
	l.mu.Lock()
	for _, i := range staged {
		l.materializeLocked(&evs[i])
		results[i].Version = evs[i].Version
	}
	l.mu.Unlock()
	// Enqueue under writeMu so queue order stays version order; a full
	// queue applies backpressure here (to writers, never readers), bounding
	// queued-event memory.
	for _, i := range staged {
		l.events <- queuedEvent{ev: evs[i], payloads: payloads[i]}
	}
	return nil
}
