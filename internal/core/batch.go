package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/datalake"
	"repro/internal/verify"
)

// VerifyBatch verifies many generated objects concurrently, preserving input
// order in the returned reports. parallelism bounds the number of in-flight
// verifications (values < 1 mean sequential). The first error stops new work
// from being dispatched and is returned.
//
// The pipeline is safe for concurrent verification: the lake and every index
// structure are internally synchronized (ingestion may even proceed while a
// batch runs), the embedder's token table and the provenance store are
// concurrent, and verdict resolution is per-object.
func (p *Pipeline) VerifyBatch(objects []verify.Generated, parallelism int, kinds ...datalake.Kind) ([]Report, error) {
	return p.VerifyBatchCtx(context.Background(), objects, parallelism, kinds...)
}

// VerifyBatchCtx is VerifyBatch honoring a request context: cancellation
// stops new objects from being dispatched and aborts each in-flight
// verification at its next stage boundary, returning the context's error.
// Individual objects hit the verify-result cache exactly as VerifyCtx does.
func (p *Pipeline) VerifyBatchCtx(ctx context.Context, objects []verify.Generated, parallelism int, kinds ...datalake.Kind) ([]Report, error) {
	if len(objects) == 0 {
		return nil, nil
	}
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(objects) {
		parallelism = len(objects)
	}

	reports := make([]Report, len(objects))
	jobs := make(chan int)

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	// Each in-flight verification runs its evidence sequentially when the
	// batch itself is parallel, so verifier concurrency stays at the
	// requested bound instead of multiplying by cfg.VerifyWorkers. (The
	// retrieval stage inside each verification still uses its own
	// short-lived fan-out; those goroutines are multiplexed onto GOMAXPROCS
	// by the scheduler, so actual CPU parallelism stays machine-bounded.)
	evidenceWorkers := p.cfg.VerifyWorkers
	if parallelism > 1 {
		evidenceWorkers = 1
	}
	eff := p.normalizeKinds(kinds)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed() {
					continue // drain without working
				}
				rep, err := p.verifyCached(ctx, objects[i], evidenceWorkers, eff)
				if err != nil {
					fail(fmt.Errorf("core: verify object %d (%s): %w", i, objects[i].ID, err))
					continue
				}
				reports[i] = rep
			}
		}()
	}
	for i := range objects {
		if failed() || ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// A cancellation that stopped dispatch without any worker observing it
	// leaves undispatched zero-value reports; surface the context error
	// rather than returning a silently partial batch.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reports, nil
}
