package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/datalake"
	"repro/internal/par"
	"repro/internal/verify"
)

// VerifyBatch verifies many generated objects concurrently, preserving input
// order in the returned reports. parallelism bounds the number of in-flight
// verifications (values < 1 mean sequential). A failure stops objects after
// it from starting; the error returned is that of the lowest-indexed object
// that failed, the one a sequential run would return.
//
// The pipeline is safe for concurrent verification: the lake and every index
// structure are internally synchronized (ingestion may even proceed while a
// batch runs), the embedder's token table and the provenance store are
// concurrent, and verdict resolution is per-object.
func (p *Pipeline) VerifyBatch(objects []verify.Generated, parallelism int, kinds ...datalake.Kind) ([]Report, error) {
	return p.VerifyBatchCtx(context.Background(), objects, parallelism, kinds...)
}

// VerifyBatchCtx is VerifyBatch honoring a request context: cancellation
// stops new objects from starting and aborts each in-flight verification at
// its next stage boundary. It returns the lowest-indexed object's error as
// VerifyBatch does, or else the context's error. Individual objects hit the
// verify-result cache exactly as VerifyCtx does. Each object runs on the
// worker that took it, so parallelism bounds the batch's goroutines.
func (p *Pipeline) VerifyBatchCtx(ctx context.Context, objects []verify.Generated, parallelism int, kinds ...datalake.Kind) ([]Report, error) {
	if len(objects) == 0 {
		return nil, nil
	}
	eff := p.normalizeKinds(kinds)
	reports := make([]Report, len(objects))
	errs := make([]error, len(objects))
	// failedAt holds the index of a failed object (len(objects) while none
	// has). An object after it does not start; one before it always runs,
	// so the lowest-indexed failure is never skipped and errs finds it.
	var failedAt atomic.Int64
	failedAt.Store(int64(len(objects)))
	par.For(len(objects), parallelism, func(i int) {
		if int64(i) > failedAt.Load() || ctx.Err() != nil {
			return
		}
		rep, err := p.verifyCached(ctx, objects[i], eff)
		if err != nil {
			errs[i] = fmt.Errorf("core: verify object %d (%s): %w", i, objects[i].ID, err)
			failedAt.Store(int64(i))
			return
		}
		reports[i] = rep
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// A cancellation that stopped objects from starting leaves zero-value
	// reports; surface the context error rather than returning a silently
	// partial batch.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reports, nil
}
