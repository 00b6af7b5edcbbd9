package cdc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// fakeLeader serves a change feed from an in-memory record slice,
// honoring ?from= with the applier-facing cursor contract.
type fakeLeader struct {
	mu    sync.Mutex
	recs  []wal.Record
	floor uint64
	conns int
}

func (fl *fakeLeader) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ChangesPath, func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		fl.mu.Lock()
		fl.conns++
		recs := append([]wal.Record(nil), fl.recs...)
		floor := fl.floor
		fl.mu.Unlock()
		if from < floor {
			http.Error(w, fmt.Sprintf("cursor %d below floor %d", from, floor), http.StatusGone)
			return
		}
		w.Header().Set("Content-Type", ContentTypeFrames)
		enc := NewEncoderFormat(w, wal.FormatBinary)
		for _, rec := range recs {
			if rec.Kind == wal.KindSource || rec.Kind == KindHeartbeat || rec.Version > from {
				if err := enc.Encode(rec); err != nil {
					return
				}
			}
		}
		// Connection closes cleanly; the client reconnects with its cursor.
	})
	return mux
}

func TestFollowAppliesAndResumes(t *testing.T) {
	fl := &fakeLeader{recs: []wal.Record{
		docRecord(1, "d1"),
		docRecord(2, "d2"),
		{Version: 2, Kind: KindHeartbeat},
	}}
	srv := httptest.NewServer(fl.handler())
	defer srv.Close()

	var mu sync.Mutex
	var applied []uint64
	var hb uint64
	cursor := uint64(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, FollowOptions{
			Leader:  srv.URL,
			From:    func() uint64 { mu.Lock(); defer mu.Unlock(); return cursor },
			Backoff: 5 * time.Millisecond,
			Apply: func(recs []wal.Record) error {
				mu.Lock()
				defer mu.Unlock()
				for _, rec := range recs {
					if rec.Version != cursor+1 {
						return fmt.Errorf("gap: got %d at cursor %d", rec.Version, cursor)
					}
					applied = append(applied, rec.Version)
					cursor = rec.Version
				}
				return nil
			},
			OnHeartbeat: func(v uint64) { mu.Lock(); hb = v; mu.Unlock() },
		})
	}()

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return cursor == 2 && hb == 2 })

	// New records appear; a reconnect must resume from the cursor without
	// re-applying 1 and 2 (the Apply callback gap-checks this).
	fl.mu.Lock()
	fl.recs = append(fl.recs, docRecord(3, "d3"))
	fl.mu.Unlock()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return cursor == 3 })

	mu.Lock()
	if len(applied) != 3 {
		t.Errorf("applied %v, want exactly [1 2 3]", applied)
	}
	mu.Unlock()

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Follow after cancel = %v, want nil", err)
	}
}

func TestFollowSnapshotRequired(t *testing.T) {
	fl := &fakeLeader{floor: 10}
	srv := httptest.NewServer(fl.handler())
	defer srv.Close()

	err := Follow(context.Background(), FollowOptions{
		Leader: srv.URL,
		From:   func() uint64 { return 3 },
		Apply:  func([]wal.Record) error { return nil },
	})
	if !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("Follow = %v, want ErrSnapshotRequired", err)
	}
}

func TestFollowApplyErrorIsFatal(t *testing.T) {
	fl := &fakeLeader{recs: []wal.Record{docRecord(1, "d1")}}
	srv := httptest.NewServer(fl.handler())
	defer srv.Close()

	boom := errors.New("diverged")
	err := Follow(context.Background(), FollowOptions{
		Leader: srv.URL,
		From:   func() uint64 { return 0 },
		Apply:  func([]wal.Record) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Follow = %v, want the Apply error", err)
	}
}

func TestFollowReconnectsThroughLeaderErrors(t *testing.T) {
	var fail int32 = 2
	fl := &fakeLeader{recs: []wal.Record{docRecord(1, "d1")}}
	inner := fl.handler()
	mux := http.NewServeMux()
	var mu sync.Mutex
	mux.HandleFunc(ChangesPath, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		failing := fail > 0
		if failing {
			fail--
		}
		mu.Unlock()
		if failing {
			http.Error(w, "leader hiccup", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	applied := make(chan uint64, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go Follow(ctx, FollowOptions{
		Leader:  srv.URL,
		From:    func() uint64 { return 0 },
		Backoff: time.Millisecond,
		Apply: func(recs []wal.Record) error {
			select {
			case applied <- recs[len(recs)-1].Version:
			default:
			}
			return nil
		},
	})
	select {
	case v := <-applied:
		if v != 1 {
			t.Fatalf("applied through version %d, want 1", v)
		}
	case <-ctx.Done():
		t.Fatal("Follow never recovered from transient leader errors")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
