package datalake

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/table"
)

// TestCommitHookObservesStagedEvents checks the durable hook contract: it
// sees every mutation in version order with versions assigned, before the
// mutation is observable anywhere else.
func TestCommitHookObservesStagedEvents(t *testing.T) {
	l := New()
	defer l.Close()
	var logged []Event
	l.SetCommitHook(func(evs []Event) error {
		for _, ev := range evs {
			if ev.Version == 0 {
				t.Error("hook saw event without version")
			}
			// The mutation must not be visible yet: the hook runs before
			// materialization.
			switch ev.Kind {
			case KindTable:
				if l.cat.hasTable(ev.Table.ID) {
					t.Errorf("table %q already in catalog during hook", ev.Table.ID)
				}
			case KindText:
				if l.cat.hasDoc(ev.Doc.ID) {
					t.Errorf("doc %q already in catalog during hook", ev.Doc.ID)
				}
			}
		}
		logged = append(logged, evs...)
		return nil
	})

	if err := l.AddTable(table.New("t1", "c", []string{"a"})); err != nil {
		t.Fatal(err)
	}
	if err := l.AddDocument(&doc.Document{ID: "d1", Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 3 {
		t.Fatalf("hook saw %d events, want 3", len(logged))
	}
	for i, ev := range logged {
		if ev.Version != uint64(i+1) {
			t.Errorf("event %d has version %d, want %d", i, ev.Version, i+1)
		}
	}
}

// TestCommitHookErrorAborts checks that a failing hook rolls the whole
// section back: no catalog change, no version consumed, no event delivery.
func TestCommitHookErrorAborts(t *testing.T) {
	l := New()
	defer l.Close()
	var delivered int
	subscribe(t, l, Subscriber{Apply: func(Event) error { delivered++; return nil }})

	boom := errors.New("disk full")
	fail := true
	l.SetCommitHook(func([]Event) error {
		if fail {
			return boom
		}
		return nil
	})

	if err := l.AddTable(table.New("t1", "c", []string{"a"})); !errors.Is(err, boom) {
		t.Fatalf("AddTable error = %v, want the hook's error", err)
	}
	if _, ok := l.Table("t1"); ok {
		t.Fatal("aborted table is in the catalog")
	}
	if v := l.Version(); v != 0 {
		t.Fatalf("Version = %d after aborted commit, want 0", v)
	}

	// The staged version was released: the next successful commit is 1.
	fail = false
	v, err := l.AddTableVersioned(table.New("t1", "c", []string{"a"}))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("post-abort commit got version %d, want 1", v)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d events, want 1 (aborted commit must not deliver)", delivered)
	}
}

// TestCommitHookBatchAmortized checks AddBatch invokes the hook once with
// the whole section, rolls all items back on error, and still rejects
// intra-batch duplicates during staging.
func TestCommitHookBatchAmortized(t *testing.T) {
	l := New()
	defer l.Close()
	l.SetMetrics(obs.NewRegistry())
	var calls int
	var sizes []int
	l.SetCommitHook(func(evs []Event) error {
		calls++
		sizes = append(sizes, len(evs))
		return nil
	})

	items := []BatchItem{
		{Doc: &doc.Document{ID: "d1", Text: "x"}},
		{Doc: &doc.Document{ID: "d1", Text: "dup"}}, // intra-batch duplicate
		{Triple: &kg.Triple{Subject: "s", Predicate: "p", Object: "o"}},
	}
	results, err := l.AddBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid items failed: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, ErrDuplicate) {
		t.Fatalf("intra-batch duplicate error = %v, want ErrDuplicate", results[1].Err)
	}
	if calls != 1 || sizes[0] != 2 {
		t.Fatalf("hook calls = %d sizes = %v, want one call with the 2 staged events", calls, sizes)
	}

	// A failing hook rejects every staged item and consumes no versions.
	boom := errors.New("wal broken")
	l.SetCommitHook(func([]Event) error { return boom })
	results, err = l.AddBatch([]BatchItem{{Doc: &doc.Document{ID: "d2", Text: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, boom) || results[0].Version != 0 {
		t.Fatalf("hook failure result = %+v, want the hook's error and no version", results[0])
	}
	if _, ok := l.Document("d2"); ok {
		t.Fatal("aborted batch item is in the catalog")
	}
	if v, _ := l.Flush(); v != 2 {
		t.Fatalf("version after aborted batch = %d, want 2", v)
	}
	// The commit-latency histogram observes once per section on every exit,
	// so a WAL that starts rejecting (and stalling) commits stays visible.
	if n := l.m.commitSec.Count(); n != 2 {
		t.Fatalf("commit histogram count = %d, want 2 (the hook-rejected section included)", n)
	}
}

// TestSourceHook checks source registrations flow through (and can be
// rejected by) the source hook.
func TestSourceHook(t *testing.T) {
	l := New()
	defer l.Close()
	var seen []Source
	l.SetSourceHook(func(s Source) error {
		if s.ID == "bad" {
			return fmt.Errorf("rejected")
		}
		seen = append(seen, s)
		return nil
	})
	if err := l.AddSource(Source{ID: "ok", Name: "fine"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddSource(Source{ID: "bad"}); err == nil {
		t.Fatal("hook rejection not propagated")
	}
	if _, ok := l.Source("bad"); ok {
		t.Fatal("rejected source registered anyway")
	}
	if len(seen) != 1 || seen[0].TrustPrior != 0.5 {
		t.Fatalf("hook saw %+v, want the normalized accepted source", seen)
	}
}

// TestQuiesce checks the quiesce contract: everything committed before is
// applied, and the reported version matches the catalog version.
func TestQuiesce(t *testing.T) {
	l := New()
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.AddDocument(&doc.Document{ID: fmt.Sprintf("d%d", i), Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	var got uint64
	if err := l.Quiesce(func(v uint64) error {
		got = v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("quiesced version = %d, want 5", got)
	}
	// Writes still work afterwards.
	if err := l.AddDocument(&doc.Document{ID: "after", Text: "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestFastForwardVersion(t *testing.T) {
	l := New()
	defer l.Close()
	if err := l.AddDocument(&doc.Document{ID: "d1", Text: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := l.FastForwardVersion(0); err == nil {
		t.Fatal("fast-forward behind current version succeeded")
	}
	if err := l.FastForwardVersion(10); err != nil {
		t.Fatal(err)
	}
	if v := l.Version(); v != 10 {
		t.Fatalf("Version after fast-forward = %d, want 10", v)
	}
	v, err := l.AddDocumentVersioned(&doc.Document{ID: "d2", Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if v != 11 {
		t.Fatalf("next commit after fast-forward got version %d, want 11", v)
	}
}
