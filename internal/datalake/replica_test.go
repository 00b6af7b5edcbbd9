package datalake

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

func testDoc(id string) *doc.Document {
	return &doc.Document{ID: id, Title: id, Text: "text of " + id}
}

func TestReadOnlyRejectsLocalWrites(t *testing.T) {
	l := New()
	defer l.Close()
	l.SetReadOnly(true)
	if !l.readOnly {
		t.Fatal("readOnly = false after SetReadOnly(true)")
	}

	if err := l.AddDocument(testDoc("d1")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddDocument = %v, want ErrReadOnly", err)
	}
	tbl := table.New("t1", "c", []string{"a"})
	if err := l.AddTable(tbl); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddTable = %v, want ErrReadOnly", err)
	}
	if err := l.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddTriple = %v, want ErrReadOnly", err)
	}
	if _, err := l.AddBatch([]BatchItem{{Doc: testDoc("d2")}}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddBatch = %v, want ErrReadOnly", err)
	}
	if err := l.AddSource(Source{ID: "s1", Name: "s"}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddSource = %v, want ErrReadOnly", err)
	}

	// The replication path must work and feed subscribers normally.
	var mu sync.Mutex
	var seen []uint64
	subscribe(t, l, Subscriber{Apply: func(ev Event) error {
		mu.Lock()
		seen = append(seen, ev.Version)
		mu.Unlock()
		return nil
	}})
	res, err := l.ReplicateBatch([]BatchItem{{Doc: testDoc("r1")}, {Doc: testDoc("r2")}})
	if err != nil {
		t.Fatalf("ReplicateBatch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Version != uint64(i+1) {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	if err := l.ReplicateSource(Source{ID: "s1", Name: "s"}); err != nil {
		t.Fatalf("ReplicateSource: %v", err)
	}
	if _, ok := l.Source("s1"); !ok {
		t.Error("replicated source not registered")
	}
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != 2 {
		t.Errorf("subscriber saw %d events, want 2", n)
	}
	if v := l.CommittedVersion(); v != 2 {
		t.Errorf("CommittedVersion = %d, want 2", v)
	}

	// Flipping back re-enables local writes.
	l.SetReadOnly(false)
	if err := l.AddDocument(testDoc("d3")); err != nil {
		t.Errorf("AddDocument after SetReadOnly(false): %v", err)
	}
}

func TestWaitApplied(t *testing.T) {
	l := New()
	defer l.Close()

	// Already-applied versions return immediately.
	if err := l.AddDocument(testDoc("d1")); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(context.Background(), 1); err != nil {
		t.Fatalf("WaitApplied(1): %v", err)
	}

	// A future version blocks until it commits and applies.
	done := make(chan error, 1)
	go func() { done <- l.WaitApplied(context.Background(), 2) }()
	select {
	case err := <-done:
		t.Fatalf("WaitApplied(2) returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.AddDocument(testDoc("d2")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitApplied(2): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied(2) did not wake after commit")
	}

	// Context cancellation unblocks the wait.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := l.WaitApplied(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitApplied(99) with deadline = %v, want DeadlineExceeded", err)
	}
}

func TestWaitAppliedClosedLake(t *testing.T) {
	l := New()
	done := make(chan error, 1)
	go func() { done <- l.WaitApplied(context.Background(), 5) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitApplied on closed lake = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied did not wake on Close")
	}
}

// TestFollowerCloseDuringApply is the regression test for the follower
// shutdown path: Close racing a replication apply whose events are still
// being delivered to a change-feed subscriber must not deadlock. Two
// appliers replicate concurrently while Apply blocks on a gate, and Close
// starts once a second section has committed behind the blocked one (so
// that applier holds the write lock, waiting to apply). The appliers are
// external goroutines — not lake hooks — so the rule "hooks must not write
// back into the lake" holds: every section applies once the gate opens,
// Close always terminates, and each applier's next ReplicateBatch reports
// ErrClosed.
func TestFollowerCloseDuringApply(t *testing.T) {
	l := New()
	l.SetReadOnly(true)
	sections := countSections(l)
	gate := make(chan struct{})
	var entered atomic.Int64
	subscribe(t, l, Subscriber{Apply: func(Event) error {
		entered.Add(1)
		<-gate
		return nil
	}})

	applierDone := make(chan error, 2)
	for a := 0; a < 2; a++ {
		go func() {
			for i := 0; ; i++ {
				items := make([]BatchItem, 8)
				for j := range items {
					items[j] = BatchItem{Doc: testDoc(fmt.Sprintf("r%d-%d-%d", a, i, j))}
				}
				if _, err := l.ReplicateBatch(items); err != nil {
					applierDone <- err
					return
				}
			}
		}()
	}

	waitOverlap(t, sections, &entered)
	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v while the applier still held the write lock", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)

	for _, ch := range []struct {
		name string
		c    chan error
	}{{"Close", closeDone}, {"applier", applierDone}, {"applier", applierDone}} {
		select {
		case err := <-ch.c:
			if ch.name == "applier" && !errors.Is(err, ErrClosed) {
				t.Errorf("applier exited with %v, want ErrClosed", err)
			}
			if ch.name == "Close" && err != nil {
				t.Errorf("Close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked against the change-feed subscriber", ch.name)
		}
	}
}

// TestSubscriberSourceAndUnsubscribe checks that a subscriber's Source runs
// before AddSource and ReplicateSource return, and that once unsubscribe
// returns — even when it raced an in-flight Apply — neither Apply nor
// Source is invoked again.
func TestSubscriberSourceAndUnsubscribe(t *testing.T) {
	l := New()
	defer l.Close()
	var applies, sources atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	unsubscribe := subscribe(t, l, Subscriber{
		Apply: func(ev Event) error {
			applies.Add(1)
			if ev.Doc.ID == "slow" {
				close(entered)
				<-release
			}
			return nil
		},
		Source: func(Source) { sources.Add(1) },
	})

	if err := l.AddSource(Source{ID: "local"}); err != nil {
		t.Fatal(err)
	}
	if n := sources.Load(); n != 1 {
		t.Fatalf("Source ran %d times before AddSource returned, want 1", n)
	}
	l.SetReadOnly(true)
	if err := l.ReplicateSource(Source{ID: "replicated"}); err != nil {
		t.Fatal(err)
	}
	if n := sources.Load(); n != 2 {
		t.Fatalf("Source ran %d times before ReplicateSource returned, want 2", n)
	}
	l.SetReadOnly(false)

	// Unsubscribe while an Apply is in flight: it must wait for that call.
	ingestDone := make(chan error, 1)
	go func() { ingestDone <- l.AddDocument(testDoc("slow")) }()
	<-entered
	unsubDone := make(chan struct{})
	go func() {
		unsubscribe()
		close(unsubDone)
	}()
	select {
	case <-unsubDone:
		t.Fatal("unsubscribe returned while Apply was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-unsubDone
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	unsubscribe() // idempotent

	if err := l.AddSource(Source{ID: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddDocument(testDoc("after")); err != nil {
		t.Fatal(err)
	}
	if a, s := applies.Load(), sources.Load(); a != 1 || s != 2 {
		t.Fatalf("after unsubscribe: %d Apply and %d Source calls, want 1 and 2", a, s)
	}
}
