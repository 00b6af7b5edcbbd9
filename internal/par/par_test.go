package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCallsEachIndexOnce: every index in [0, n) is called exactly once,
// whatever the worker count, none outside the range, and For returns only
// after the last call has.
func TestForCallsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 5} {
			calls := make([]atomic.Int32, n)
			var outside atomic.Int32
			For(n, workers, func(i int) {
				if i < 0 || i >= n {
					outside.Add(1)
					return
				}
				calls[i].Add(1)
			})
			if got := outside.Load(); got != 0 {
				t.Errorf("n=%d workers=%d: %d calls outside [0, n)", n, workers, got)
			}
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d called %d times", n, workers, i, got)
					break
				}
			}
		}
	}
}

// TestForInlineInOrder: with at most one worker, the calls run in index
// order on the calling goroutine (no goroutine is started).
func TestForInlineInOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		before := runtime.NumGoroutine()
		var order []int
		For(50, workers, func(i int) {
			order = append(order, i) // unsynchronized: the race detector flags another goroutine
			if g := runtime.NumGoroutine(); g > before {
				t.Fatalf("workers=%d: %d goroutines during the call, %d before", workers, g, before)
			}
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: call %d was index %d", workers, i, got)
			}
		}
		if len(order) != 50 {
			t.Fatalf("workers=%d: %d calls, want 50", workers, len(order))
		}
	}
	// One item runs inline too, whatever the worker count.
	before := runtime.NumGoroutine()
	For(1, 8, func(int) {
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("n=1: %d goroutines during the call, %d before", g, before)
		}
	})
}

// TestForBoundsConcurrency: no more than workers calls are in flight at
// once, and with enough slow items the bound is reached.
func TestForBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		var inFlight, high atomic.Int32
		For(64, workers, func(int) {
			cur := inFlight.Add(1)
			for h := high.Load(); cur > h && !high.CompareAndSwap(h, cur); h = high.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
		})
		if got := high.Load(); got > int32(workers) {
			t.Errorf("workers=%d: %d calls in flight at once", workers, got)
		}
		if got := high.Load(); got < 2 {
			t.Errorf("workers=%d: at most %d call in flight, want a parallel run", workers, got)
		}
	}
}
