package datalake

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// snapPayload stands in for the pipeline's frozen-index payload; readers
// assert it stays attached (and version-consistent) for as long as they
// hold an acquired handle.
type snapPayload struct{ version uint64 }

// TestSnapshotRetention pins down the deterministic retention contract
// before the concurrent hammer: keep-last-N unpinned, pins exempt, an
// in-flight reader keeps an evicted payload alive until Release.
func TestSnapshotRetention(t *testing.T) {
	reg := NewSnapshotRegistry(2)
	for v := uint64(1); v <= 3; v++ {
		reg.Add(&View{version: v}, &snapPayload{version: v}, false)
	}
	// Hold a reader on v2, pin v3, then push the window past both.
	h2, err := reg.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	reg.Add(&View{version: 3}, &snapPayload{version: 3}, true)
	for v := uint64(4); v <= 6; v++ {
		reg.Add(&View{version: v}, &snapPayload{version: v}, false)
	}
	// v1 and v2 are evicted (only 5 and 6 fit the unpinned window), v3
	// survives on its pin.
	if _, err := reg.Acquire(1); err == nil {
		t.Fatal("evicted snapshot v1 still acquirable")
	}
	if _, err := reg.Acquire(2); err == nil {
		t.Fatal("evicted snapshot v2 acquirable by new readers")
	}
	if got := reg.Floor(); got != 3 {
		t.Fatalf("floor = %d, want 3 (pinned v3)", got)
	}
	var bf *BelowFloorError
	if _, err := reg.Acquire(1); !errors.As(err, &bf) || bf.Floor != 3 {
		t.Fatalf("below-floor acquire error = %v, want BelowFloorError{Floor: 3}", err)
	}
	// The in-flight reader on evicted v2 still sees its payload; the last
	// Release frees it.
	if p, ok := h2.Payload().(*snapPayload); !ok || p.version != 2 {
		t.Fatalf("evicted-but-held payload = %#v, want version 2", h2.Payload())
	}
	h2.Release()
	reg.mu.Lock()
	freed := h2.payload == nil
	reg.mu.Unlock()
	if !freed {
		t.Fatal("payload not freed after last Release of an evicted snapshot")
	}
	// Unpinning v3 collects it immediately (window already full).
	if err := reg.Unpin(3); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire(3); err == nil {
		t.Fatal("unpinned v3 not collected")
	}
}

// TestSnapshotGCvsReaders hammers retention GC concurrently with pinned
// reads and new pins (run under -race): an acquired handle must never
// observe a freed payload, a pin must hold until the matching Unpin, and
// once every pin is released the unpinned population must shrink back to
// the retention window.
func TestSnapshotGCvsReaders(t *testing.T) {
	const (
		retain  = 4
		writers = 3
		readers = 3
		pinners = 2
		perG    = 400
	)
	reg := NewSnapshotRegistry(retain)
	var version atomic.Uint64

	// pinned tracks versions this test successfully pinned and has not yet
	// unpinned; GC must never collect one while it is in the map.
	var (
		pinMu  sync.Mutex
		pinned = map[uint64]bool{}
	)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := version.Add(1)
				reg.Add(&View{version: v}, &snapPayload{version: v}, false)
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				floor, latest := reg.Floor(), reg.Latest()
				if latest == 0 {
					continue
				}
				// A simple LCG spreads reads across the retained window (and
				// slightly past it, to exercise the miss paths).
				seed = seed*6364136223846793005 + 1442695040888963407
				v := floor + seed%(latest-floor+2)
				snap, err := reg.Acquire(v)
				if err != nil {
					var bf *BelowFloorError
					if !errors.As(err, &bf) && !errors.Is(err, ErrSnapshotNotFound) {
						t.Errorf("Acquire(%d) unexpected error: %v", v, err)
					}
					continue
				}
				// The handle pins the payload: it must stay attached and
				// version-consistent no matter how hard GC churns.
				p, ok := snap.Payload().(*snapPayload)
				if !ok || p == nil {
					t.Errorf("acquired snapshot %d lost its payload (use after free)", v)
				} else if p.version != snap.Version() {
					t.Errorf("acquired snapshot %d carries payload of %d", snap.Version(), p.version)
				}
				snap.Release()
			}
		}(uint64(rd + 1))
	}
	for pn := 0; pn < pinners; pn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					// Pin whatever is newest, as a pipeline pins: by adding
					// it pinned (GC may have collected it meanwhile, and then
					// the add registers it afresh). The pin must stick.
					v := reg.Latest()
					if v == 0 {
						continue
					}
					pinMu.Lock()
					reg.Add(&View{version: v}, &snapPayload{version: v}, true)
					pinned[v] = true
					pinMu.Unlock()
				} else {
					pinMu.Lock()
					for v := range pinned { // any one pin
						delete(pinned, v)
						if err := reg.Unpin(v); err != nil {
							t.Errorf("Unpin(%d) of a held pin: %v (pin was lost)", v, err)
						}
						break
					}
					pinMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Every pin still held must have survived the GC storm and be readable.
	pinMu.Lock()
	held := make([]uint64, 0, len(pinned))
	for v := range pinned {
		held = append(held, v)
	}
	pinMu.Unlock()
	for _, v := range held {
		snap, err := reg.Acquire(v)
		if err != nil {
			t.Fatalf("pinned snapshot %d lost: %v", v, err)
		}
		if p, ok := snap.Payload().(*snapPayload); !ok || p.version != v {
			t.Fatalf("pinned snapshot %d payload corrupted: %#v", v, snap.Payload())
		}
		snap.Release()
		if err := reg.Unpin(v); err != nil {
			t.Fatalf("Unpin(%d): %v", v, err)
		}
	}

	// With all pins released, the unpinned population collapses to the
	// retention window.
	if got := len(reg.List()); got > retain {
		t.Fatalf("retained %d snapshots after releasing every pin, want <= %d", got, retain)
	}
	for _, info := range reg.List() {
		if info.Pinned {
			t.Fatalf("snapshot %d still pinned after the sweep", info.Version)
		}
		if info.Readers != 0 {
			t.Fatalf("snapshot %d reports %d readers after all releases", info.Version, info.Readers)
		}
	}
}
