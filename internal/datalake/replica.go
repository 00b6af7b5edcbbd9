package datalake

import (
	"context"
	"errors"
)

// ErrReadOnly marks a local write rejected by a follower lake. Followers
// accept mutations only through the replication apply path
// (ReplicateBatch/ReplicateSource); everything else belongs at the leader.
var ErrReadOnly = errors.New("datalake: read-only (follower) lake")

// SetReadOnly flips follower mode: while set, AddTable/AddDocument/
// AddTriple/AddBatch/AddSource return ErrReadOnly and only the Replicate*
// entry points may mutate the lake. Reads, subscriptions, and waits are
// unaffected.
func (l *Lake) SetReadOnly(ro bool) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.readOnly = ro
}

// ReadOnly reports whether the lake is in follower mode.
func (l *Lake) ReadOnly() bool {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return l.readOnly
}

// ReplicateBatch applies a batch of replicated mutations through the
// normal pipelined write path, bypassing the read-only gate. The caller
// (the replication applier) is responsible for ordering: items must arrive
// in leader version order with no gaps, which the durable layer asserts by
// comparing recommitted versions against the leader-assigned ones.
func (l *Lake) ReplicateBatch(items []BatchItem) ([]BatchItemResult, error) {
	return l.addBatch(items, replicated)
}

// ReplicateSource applies a replicated source registration, bypassing the
// read-only gate. Source registration is an idempotent overwrite, so
// re-delivery on stream resume is harmless.
func (l *Lake) ReplicateSource(s Source) error {
	return l.addSource(s, true)
}

// CommittedVersion returns the last assigned (committed) version. Unlike
// Version() it neither waits for nor skips in-flight applications — it is
// the correct resume cursor for a replication stream: every record at or
// below it is durably committed here (even one whose local index apply
// failed), so re-requesting it would re-apply a duplicate.
func (l *Lake) CommittedVersion() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// WaitApplied blocks until every mutation committed as version <= v has
// completed application (successfully or not), or ctx is done, or the lake
// closes (ErrClosed). It never claims application errors — it is a pure
// freshness barrier, the primitive behind
// read-your-writes (?min_version=) and change-feed gating. Waiting on a
// version not yet committed blocks until it is committed and applied,
// which on a follower means "until replication catches up".
func (l *Lake) WaitApplied(ctx context.Context, v uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		// Taking mu before broadcasting orders the wakeup after the waiter
		// has either parked in Wait or re-checked ctx — a bare Broadcast
		// could land in the gap between its ctx check and cond.Wait and be
		// lost.
		l.mu.Lock()
		//lint:ignore SA2001 empty critical section is the ordering barrier described above
		l.mu.Unlock()
		l.cond.Broadcast()
	})
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.processed < v {
		if l.drained {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		l.cond.Wait()
	}
	return nil
}
