// Package par is the program's one bounded fan-out: call a function for n
// independent items on at most a given number of goroutines, then wait.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) once for every i in [0, n) on at most workers goroutines,
// each claiming the next index from a shared counter, and returns when
// every call has returned. With min(workers, n) <= 1 the calls run inline,
// in order, on the calling goroutine. fn must be safe to call concurrently
// for distinct i; results go into slots indexed by i.
func For(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
