package datalake

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// TestFlushUnderLoad ingests from concurrent writers against a slow
// asynchronous subscriber, then checks the Flush contract: the returned
// watermark covers every accepted write, every one is resolvable, and
// Version() equals the watermark (all applications completed).
func TestFlushUnderLoad(t *testing.T) {
	l := New(WithQueueSize(8)) // small queue: exercise backpressure too
	var applied atomic.Int64
	l.Subscribe(Subscriber{Apply: func(ev Event, done func(error)) {
		go func() { // complete off the dispatcher, out of order
			time.Sleep(time.Duration(ev.Version%3) * time.Millisecond)
			applied.Add(1)
			done(nil)
		}()
	}})

	const writers, perWriter = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.AddDocument(&doc.Document{ID: fmt.Sprintf("d%d-%d", w, i), Text: "body"}); err != nil {
					t.Errorf("AddDocument: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	v, err := l.Flush()
	if err != nil {
		t.Fatalf("Flush error: %v", err)
	}
	if want := uint64(writers * perWriter); v != want {
		t.Fatalf("Flush watermark = %d, want %d", v, want)
	}
	if got := l.Version(); got != v {
		t.Fatalf("Version() = %d after Flush, want %d", got, v)
	}
	if got := applied.Load(); got != int64(writers*perWriter) {
		t.Fatalf("applied %d events, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := l.Resolve(fmt.Sprintf("text:d%d-%d", w, i)); err != nil {
				t.Fatalf("accepted write not resolvable: %v", err)
			}
		}
	}
}

// TestCloseRejectsNewKeepsQueued closes the lake while a batch's events are
// still queued behind a gated subscriber: Close must reject subsequent
// writes with ErrClosed while every already-accepted write is applied (none
// lost), and must be idempotent.
func TestCloseRejectsNewKeepsQueued(t *testing.T) {
	l := New()
	gate := make(chan struct{})
	var applied atomic.Int64
	l.Subscribe(Subscriber{Apply: func(ev Event, done func(error)) {
		go func() {
			<-gate
			applied.Add(1)
			done(nil)
		}()
	}})

	const n = 10
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Doc: &doc.Document{ID: fmt.Sprintf("queued%d", i), Text: "body"}}
	}
	batchDone := make(chan error, 1)
	go func() {
		results, err := l.AddBatch(items)
		for _, res := range results {
			if err == nil {
				err = res.Err
			}
		}
		batchDone <- err
	}()

	// Wait until the whole batch has committed (catalog-visible) though its
	// application is gated.
	for l.Stats().Docs < n {
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()

	// Wait (white-box) for Close to flip the closed flag, then prove new
	// writes are rejected even though the queued batch is still unapplied.
	for {
		l.writeMu.Lock()
		c := l.closed
		l.writeMu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.AddDocument(&doc.Document{ID: "rejected", Text: "body"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddDocument during close = %v, want ErrClosed", err)
	}

	close(gate) // let the appliers drain
	if err := <-closeDone; err != nil {
		t.Fatalf("Close error: %v", err)
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("queued batch write lost: %v", err)
	}
	if got := applied.Load(); got != int64(n) {
		t.Fatalf("applied %d events, want %d (none lost)", got, n)
	}
	if got := l.Version(); got != uint64(n) {
		t.Fatalf("Version() = %d after Close, want %d", got, n)
	}
	// Still closed, still readable, still idempotent.
	if err := l.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close AddTriple error = %v, want ErrClosed", err)
	}
	if _, err := l.Resolve("text:queued0"); err != nil {
		t.Fatalf("closed lake not readable: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close error: %v", err)
	}
	// Waiting for a version that can no longer commit returns ErrClosed
	// instead of blocking forever.
	if err := l.WaitVersion(l.Version() + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitVersion(future) after Close = %v, want ErrClosed", err)
	}
}

// TestAddBatchMixed checks the batch API: contiguous versions in slice
// order across modalities, per-item duplicate/malformed errors that leave
// the rest of the batch intact, and version-ordered event delivery.
func TestAddBatchMixed(t *testing.T) {
	l := New()
	var mu sync.Mutex
	var versions []uint64
	l.Subscribe(Subscriber{Apply: func(ev Event, done func(error)) {
		mu.Lock()
		versions = append(versions, ev.Version)
		mu.Unlock()
		done(nil)
	}})

	tbl := table.New("t1", "caption", []string{"a"})
	tbl.MustAppendRow("x")
	if err := l.AddTable(tbl); err != nil { // pre-existing: batch dup target
		t.Fatal(err)
	}

	dup := table.New("t1", "dup", []string{"a"})
	fresh := table.New("t2", "fresh", []string{"a"})
	fresh.MustAppendRow("y")
	results, err := l.AddBatch([]BatchItem{
		{Table: fresh},
		{Doc: &doc.Document{ID: "d1", Text: "body"}},
		{Table: dup},
		{Triple: &kg.Triple{Subject: "s", Predicate: "p", Object: "o"}},
		{},                              // malformed: nothing set
		{Doc: &doc.Document{Text: "x"}}, // malformed: empty ID
	})
	if err != nil {
		t.Fatalf("AddBatch error: %v", err)
	}
	if results[0].Version != 2 || results[0].Err != nil {
		t.Errorf("item 0 = %+v, want version 2", results[0])
	}
	if results[1].Version != 3 || results[1].Err != nil {
		t.Errorf("item 1 = %+v, want version 3", results[1])
	}
	if !errors.Is(results[2].Err, ErrDuplicate) {
		t.Errorf("item 2 err = %v, want ErrDuplicate", results[2].Err)
	}
	if results[3].Version != 4 || results[3].Err != nil {
		t.Errorf("item 3 = %+v, want version 4", results[3])
	}
	if results[4].Err == nil || !strings.Contains(results[4].Err.Error(), "exactly one") {
		t.Errorf("item 4 err = %v, want malformed-item error", results[4].Err)
	}
	if results[5].Err == nil || !strings.Contains(results[5].Err.Error(), "empty ID") {
		t.Errorf("item 5 err = %v, want empty-ID error", results[5].Err)
	}
	if v := l.Version(); v != 4 {
		t.Fatalf("Version() = %d, want 4 (three committed batch items)", v)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[i-1]+1 {
			t.Fatalf("events out of order: %v", versions)
		}
	}
	if len(versions) != 4 {
		t.Fatalf("got %d events, want 4", len(versions))
	}
}

// TestSubscriberPreparePayload checks the two-stage subscriber contract:
// Prepare runs pre-commit (no version assigned yet) and its payload arrives
// on the committed event; entity events flow through the same path.
func TestSubscriberPreparePayload(t *testing.T) {
	l := New()
	type payload struct{ derived string }
	var prepared, appliedOK atomic.Int64
	l.Subscribe(Subscriber{
		Prepare: func(ev Event) (any, error) {
			if ev.Version != 0 {
				t.Errorf("Prepare saw version %d, want 0 (pre-commit)", ev.Version)
			}
			prepared.Add(1)
			if ev.Kind == KindText {
				return &payload{derived: "derived:" + ev.Doc.ID}, nil
			}
			return nil, nil
		},
		Apply: func(ev Event, done func(error)) {
			if ev.Kind == KindText {
				p, ok := ev.Payload.(*payload)
				if !ok || p.derived != "derived:"+ev.Doc.ID {
					t.Errorf("payload = %#v, want prepared derivation", ev.Payload)
				} else {
					appliedOK.Add(1)
				}
			}
			done(nil)
		},
	})
	if err := l.AddDocument(&doc.Document{ID: "d1", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	if prepared.Load() != 2 || appliedOK.Load() != 1 {
		t.Fatalf("prepared=%d appliedOK=%d, want 2 and 1", prepared.Load(), appliedOK.Load())
	}
}

// TestPrepareErrorAbortsIngest checks that a Prepare failure rejects the
// ingest before anything commits: no catalog change, no version bump, no
// event.
func TestPrepareErrorAbortsIngest(t *testing.T) {
	l := New()
	sentinel := errors.New("prepare exploded")
	events := 0
	l.Subscribe(Subscriber{
		Prepare: func(Event) (any, error) { return nil, sentinel },
		Apply:   func(ev Event, done func(error)) { events++; done(nil) },
	})
	err := l.AddDocument(&doc.Document{ID: "d1", Text: "body"})
	if !errors.Is(err, sentinel) {
		t.Fatalf("AddDocument error = %v, want prepare error", err)
	}
	if _, ok := l.Document("d1"); ok {
		t.Fatal("document committed despite prepare failure")
	}
	if v := l.Version(); v != 0 {
		t.Fatalf("Version() = %d, want 0", v)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatalf("Flush error: %v", err)
	}
	if events != 0 {
		t.Fatalf("%d events delivered for an aborted ingest", events)
	}
}

// TestAsyncApplyErrorReported checks that an error delivered through an
// asynchronous done callback reaches the ingest caller and leaves the
// version unpublished, exactly like a synchronous hook error.
func TestAsyncApplyErrorReported(t *testing.T) {
	l := New()
	sentinel := errors.New("shard applier failed")
	var fail atomic.Bool
	l.Subscribe(Subscriber{Apply: func(ev Event, done func(error)) {
		go func() {
			if fail.Load() {
				done(sentinel)
				return
			}
			done(nil)
		}()
	}})
	fail.Store(true)
	if err := l.AddDocument(&doc.Document{ID: "d1", Text: "body"}); !errors.Is(err, sentinel) {
		t.Fatalf("AddDocument error = %v, want applier error", err)
	}
	if v := l.Version(); v != 0 {
		t.Fatalf("Version() = %d after failed apply, want 0 (unpublished)", v)
	}
	fail.Store(false)
	if err := l.AddDocument(&doc.Document{ID: "d2", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	if v := l.Version(); v != 2 {
		t.Fatalf("Version() = %d after recovery, want 2", v)
	}
}

// TestSingleItemIngestMatchesOneItemBatch pins that AddTable/AddDocument/
// AddTriple are one-item calls into the batch write path: for every
// outcome an ingest can have, the single-item entry point and a one-item
// AddBatch report the same version and the same error.
func TestSingleItemIngestMatchesOneItemBatch(t *testing.T) {
	boom := errors.New("wal broken")
	lagged := errors.New("indexer lagged")
	modalities := map[string]func(id string) BatchItem{
		"table": func(id string) BatchItem { return BatchItem{Table: table.New(id, "c", []string{"a"})} },
		"doc":   func(id string) BatchItem { return BatchItem{Doc: &doc.Document{ID: id, Text: "x"}} },
		"triple": func(id string) BatchItem {
			return BatchItem{Triple: &kg.Triple{Subject: id, Predicate: "p", Object: "o"}}
		},
	}
	cases := []struct {
		name    string
		id      string
		setup   func(l *Lake, it BatchItem)
		keyed   bool // outcome depends on the item's ID: triples have none
		version uint64
		wantErr error // matched with errors.Is; nil with failed set means "some error"
		failed  bool
	}{
		{name: "ok", id: "x", setup: func(*Lake, BatchItem) {}, version: 1},
		{name: "duplicate", id: "x", keyed: true, wantErr: ErrDuplicate, failed: true,
			setup: func(l *Lake, it BatchItem) {
				if _, err := l.AddBatch([]BatchItem{it}); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "empty ID", id: "", keyed: true, failed: true, setup: func(*Lake, BatchItem) {}},
		{name: "closed", id: "x", wantErr: ErrClosed, failed: true,
			setup: func(l *Lake, _ BatchItem) { l.Close() }},
		{name: "read-only", id: "x", wantErr: ErrReadOnly, failed: true,
			setup: func(l *Lake, _ BatchItem) { l.SetReadOnly(true) }},
		{name: "hook error", id: "x", wantErr: boom, failed: true,
			setup: func(l *Lake, _ BatchItem) { l.SetCommitHook(func([]Event) error { return boom }) }},
		{name: "apply error", id: "x", version: 1, wantErr: lagged, failed: true,
			setup: func(l *Lake, _ BatchItem) {
				l.Subscribe(Subscriber{Apply: func(_ Event, done func(error)) { done(lagged) }})
			}},
	}
	single := func(l *Lake, it BatchItem) (uint64, error) {
		switch {
		case it.Table != nil:
			return l.AddTableVersioned(it.Table)
		case it.Doc != nil:
			return l.AddDocumentVersioned(it.Doc)
		default:
			return l.AddTripleVersioned(*it.Triple)
		}
	}
	batch := func(l *Lake, it BatchItem) (uint64, error) {
		res, err := l.AddBatch([]BatchItem{it})
		if err != nil {
			return 0, err
		}
		return res[0].Version, res[0].Err
	}
	for modality, mk := range modalities {
		for _, tc := range cases {
			if tc.keyed && modality == "triple" {
				continue
			}
			t.Run(modality+"/"+tc.name, func(t *testing.T) {
				var versions [2]uint64
				var errs [2]error
				for n, ingest := range []func(*Lake, BatchItem) (uint64, error){single, batch} {
					l := New()
					defer l.Close()
					tc.setup(l, mk(tc.id))
					versions[n], errs[n] = ingest(l, mk(tc.id))
					if versions[n] != tc.version {
						t.Errorf("path %d: version = %d, want %d", n, versions[n], tc.version)
					}
					if (errs[n] != nil) != tc.failed || (tc.wantErr != nil && !errors.Is(errs[n], tc.wantErr)) {
						t.Errorf("path %d: error = %v, want failed=%v matching %v", n, errs[n], tc.failed, tc.wantErr)
					}
				}
				if versions[0] != versions[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Errorf("single-item (%d, %v) and one-item batch (%d, %v) disagree",
						versions[0], errs[0], versions[1], errs[1])
				}
			})
		}
	}
}
