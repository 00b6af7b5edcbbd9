package datalake

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

func liveTable(id string) *table.Table {
	t := table.New(id, "caption "+id, []string{"a", "b"})
	t.MustAppendRow("x", "y")
	return t
}

// TestVersionAndEvents checks that every mutation bumps the monotonic
// version by one and that hooks observe correctly-typed events in version
// order.
func TestVersionAndEvents(t *testing.T) {
	l := New()
	if v := l.Version(); v != 0 {
		t.Fatalf("fresh lake version = %d, want 0", v)
	}
	var events []Event
	l.Subscribe(Subscriber{Apply: func(ev Event, done func(error)) {
		events = append(events, ev)
		done(nil)
	}})

	if err := l.AddTable(liveTable("t1")); err != nil {
		t.Fatal(err)
	}
	if err := l.AddDocument(&doc.Document{ID: "d1", Title: "d", Text: "body"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}

	if v := l.Version(); v != 3 {
		t.Fatalf("version = %d after 3 mutations, want 3", v)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	wantKinds := []Kind{KindTable, KindText, KindEntity}
	for i, ev := range events {
		if ev.Version != uint64(i+1) {
			t.Errorf("event %d version = %d, want %d", i, ev.Version, i+1)
		}
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
	}
	if events[0].Table == nil || events[0].Table.ID != "t1" {
		t.Error("table event missing payload")
	}
	if events[1].Doc == nil || events[1].Doc.ID != "d1" {
		t.Error("document event missing payload")
	}
	if events[2].Triple == nil || events[2].Triple.Subject != "s" {
		t.Error("triple event missing payload")
	}

	// A duplicate is rejected with ErrDuplicate and bumps nothing.
	err := l.AddTable(liveTable("t1"))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate AddTable error = %v, want ErrDuplicate", err)
	}
	if v := l.Version(); v != 3 {
		t.Fatalf("version = %d after rejected duplicate, want 3", v)
	}
	if len(events) != 3 {
		t.Fatalf("rejected duplicate emitted an event")
	}
}

// TestHookErrorPropagates checks that a failing hook surfaces its error to
// the ingest caller while the catalog mutation stays committed — and that
// the failed mutation's version is never published (readers must not
// conclude it was indexed).
func TestHookErrorPropagates(t *testing.T) {
	l := New()
	sentinel := errors.New("indexer lagged")
	var fail bool
	l.Subscribe(Subscriber{Apply: func(_ Event, done func(error)) {
		if fail {
			done(sentinel)
			return
		}
		done(nil)
	}})
	fail = true
	if err := l.AddTable(liveTable("t1")); !errors.Is(err, sentinel) {
		t.Fatalf("AddTable error = %v, want the hook's error", err)
	}
	if _, ok := l.Table("t1"); !ok {
		t.Fatal("mutation rolled back on hook error; want committed")
	}
	if v := l.Version(); v != 0 {
		t.Fatalf("version = %d after failed hook, want 0 (unpublished)", v)
	}
	// A later successful mutation publishes past the failed one.
	fail = false
	if err := l.AddTable(liveTable("t2")); err != nil {
		t.Fatal(err)
	}
	if v := l.Version(); v != 2 {
		t.Fatalf("version = %d after recovery, want 2", v)
	}
}

// TestConcurrentIngest runs parallel writers of all three modalities against
// live readers; run under -race it proves the locking discipline, and
// version/state must account for every mutation.
func TestConcurrentIngest(t *testing.T) {
	const (
		writers = 4
		perKind = 25
	)
	l := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Stats()
				l.Version()
				l.TableIDs()
				_, _ = l.Resolve("table:w0-0")
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perKind; i++ {
				if err := l.AddTable(liveTable(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("AddTable: %v", err)
				}
				if err := l.AddDocument(&doc.Document{ID: fmt.Sprintf("w%d-%d", w, i), Text: "body"}); err != nil {
					t.Errorf("AddDocument: %v", err)
				}
				if err := l.AddTriple(kg.Triple{Subject: fmt.Sprintf("e%d", w), Predicate: "p", Object: fmt.Sprint(i)}); err != nil {
					t.Errorf("AddTriple: %v", err)
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	if v := l.Version(); v != uint64(3*writers*perKind) {
		t.Fatalf("version = %d, want %d", v, 3*writers*perKind)
	}
	st := l.Stats()
	if st.Tables != writers*perKind || st.Docs != writers*perKind || st.Triples != writers*perKind {
		t.Fatalf("stats = %+v, want %d of each modality", st, writers*perKind)
	}
}
