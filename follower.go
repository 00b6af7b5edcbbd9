package verifai

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdc"
	"repro/internal/datalake"
	"repro/internal/durable"
	"repro/internal/wal"
)

// This file is the follower role: a read-only replica of a leader system,
// bootstrapped from the leader's checkpoint and kept fresh by streaming
// the leader's WAL over the change feed (GET /v1/changes).

// ErrReadOnlyFollower reports a local write attempted on a follower
// system; detect it with errors.Is and send the write to the leader.
var ErrReadOnlyFollower = datalake.ErrReadOnly

// ReplicationStats describes a follower's replication posture for
// monitoring (the "replication" section of GET /v1/stats).
type ReplicationStats struct {
	// Leader is the URL this follower streams from.
	Leader string `json:"leader"`
	// LocalVersion is the highest lake version applied locally.
	LocalVersion uint64 `json:"local_version"`
	// LeaderVersion is the leader's version as of the last heartbeat (at
	// least LocalVersion; the gap is the replication lag in versions).
	LeaderVersion uint64 `json:"leader_version"`
	// AppliedRecords counts change-stream records applied since open.
	AppliedRecords uint64 `json:"applied_records"`
	// ApplyLagSeconds is the apply lag of the most recently applied batch:
	// follower apply time minus the leader's WAL append stamp (wal.Record.TS).
	// 0 until a stamped record is applied; clock skew between the nodes
	// shifts it (it is an operational signal, not an ordering primitive).
	ApplyLagSeconds float64 `json:"apply_lag_seconds,omitempty"`
	// Running reports whether the streaming loop is still live; when false,
	// LastError says why it stopped.
	Running   bool   `json:"running"`
	LastError string `json:"last_error,omitempty"`
}

// follower is the streaming loop attached to a follower System.
type follower struct {
	leader string
	cancel context.CancelFunc
	done   chan struct{}

	// lagNs is the most recent batch's apply lag in nanoseconds (follower
	// apply time minus the max leader append stamp in the batch).
	lagNs atomic.Int64

	mu            sync.Mutex
	applied       uint64
	leaderVersion uint64
	lastErr       error
}

// appliedRecords snapshots the applied-record counter.
func (f *follower) appliedRecords() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// OpenFollower opens dir as a read-only replica of the leader at the given
// base URL (e.g. "http://leader:8080"):
//
//  1. an empty directory bootstraps from GET /v1/replica/checkpoint — the
//     leader's latest checkpoint tar, restored atomically (a leader that
//     has never checkpointed means streaming from version 0 instead);
//  2. the directory then opens exactly as Open does (checkpoint + local
//     WAL replay), recovering the follower's replication cursor from its
//     own durable state;
//  3. the lake is marked read-only — local writes fail with the lake's
//     read-only error; mutations arrive only via replication — and a
//     background loop streams GET /v1/changes?from=<cursor>, applying
//     records through the same path crash recovery uses and logging them
//     to the follower's own WAL (a killed follower resumes from its local
//     cursor, not from zero);
//  4. verification, retrieval, and stats serve normally throughout, with
//     System.Replication reporting lag.
//
// Close stops the stream before shutting the pipeline down. The follower
// may checkpoint (bounding its own recovery time) and re-serve the change
// feed, chaining replication.
func OpenFollower(dir, leader string, opts OpenOptions) (*System, error) {
	client := &http.Client{} // no global timeout: the change feed is long-lived
	has, err := durable.HasCheckpoint(dir)
	if err != nil {
		return nil, fmt.Errorf("verifai: follower bootstrap: %w", err)
	}
	if !has {
		rc, err := cdc.FetchCheckpoint(context.Background(), client, leader)
		switch {
		case errors.Is(err, cdc.ErrNoCheckpoint):
			// Leader has never checkpointed: its WAL still holds everything,
			// so an empty follower streaming from 0 converges.
		case err != nil:
			return nil, fmt.Errorf("verifai: follower bootstrap: %w", err)
		default:
			restoreErr := durable.RestoreCheckpointTar(dir, rc)
			rc.Close()
			if restoreErr != nil {
				return nil, fmt.Errorf("verifai: follower bootstrap: %w", restoreErr)
			}
		}
	}

	sys, err := openDurable(dir, opts, true)
	if err != nil {
		return nil, err
	}
	st := sys.durable

	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{leader: leader, cancel: cancel, done: make(chan struct{})}
	sys.follower = f
	reg := sys.Metrics()
	reg.GaugeFunc("verifai_replication_lag_records",
		"Replication lag in lake versions (leader's last heartbeat version minus locally applied).",
		func() float64 {
			stats, ok := sys.Replication()
			if !ok || stats.LeaderVersion < stats.LocalVersion {
				return 0
			}
			return float64(stats.LeaderVersion - stats.LocalVersion)
		})
	reg.GaugeFunc("verifai_replication_lag_seconds",
		"Apply lag of the most recently replicated batch in seconds (leader append stamp to follower apply).",
		func() float64 { return time.Duration(f.lagNs.Load()).Seconds() })
	reg.CounterFunc("verifai_replication_applied_records_total",
		"Change-stream records applied by this follower since open.", f.appliedRecords)
	go f.run(ctx, client, st)
	return sys, nil
}

// run streams the leader's change feed until ctx is canceled or the stream
// fails fatally (apply error, cursor fallen below the leader's floor).
func (f *follower) run(ctx context.Context, client *http.Client, st *durable.Store) {
	defer close(f.done)
	err := cdc.Follow(ctx, cdc.FollowOptions{
		Leader: f.leader,
		Client: client,
		From:   st.Lake().CommittedVersion,
		Apply: func(recs []wal.Record) error {
			var maxTS int64
			for _, rec := range recs {
				if rec.TS > maxTS {
					maxTS = rec.TS
				}
			}
			n, err := st.ApplyReplicated(recs)
			if err == nil && maxTS > 0 {
				f.lagNs.Store(time.Now().UnixNano() - maxTS)
			}
			f.mu.Lock()
			f.applied += uint64(n)
			f.mu.Unlock()
			return err
		},
		OnHeartbeat: func(v uint64) {
			f.mu.Lock()
			if v > f.leaderVersion {
				f.leaderVersion = v
			}
			f.mu.Unlock()
		},
	})
	if err != nil && ctx.Err() == nil {
		f.mu.Lock()
		f.lastErr = err
		f.mu.Unlock()
	}
}

// stop cancels the streaming loop and waits for it to exit.
func (f *follower) stop() {
	f.cancel()
	<-f.done
}

// Replication reports the follower's streaming posture; ok is false for
// systems that are not followers.
func (s *System) Replication() (ReplicationStats, bool) {
	f := s.follower
	if f == nil {
		return ReplicationStats{}, false
	}
	local := s.pipeline.Lake().CommittedVersion()
	f.mu.Lock()
	defer f.mu.Unlock()
	stats := ReplicationStats{
		Leader:          f.leader,
		LocalVersion:    local,
		LeaderVersion:   f.leaderVersion,
		AppliedRecords:  f.applied,
		ApplyLagSeconds: time.Duration(f.lagNs.Load()).Seconds(),
	}
	if stats.LeaderVersion < local {
		stats.LeaderVersion = local // heartbeats lag applied records
	}
	select {
	case <-f.done:
		if f.lastErr != nil {
			stats.LastError = f.lastErr.Error()
		}
	default:
		stats.Running = true
	}
	return stats, true
}

// ChangeFeed exposes the durable store's replication surfaces in the shape
// server.WithChangeFeed wants: the WAL for tail-serving, the checkpoint
// version as the feed floor, the checkpoint-tar writer for follower
// bootstrap, and the log's payload format so the wire encoding matches the
// configured -wal-format. ok is false for in-memory systems (NewSystem),
// which have no WAL to serve.
func (s *System) ChangeFeed() (log *wal.Log, floor func() uint64, checkpointTar func(io.Writer) error, format wal.Format, ok bool) {
	if s.durable == nil {
		return nil, nil, nil, wal.FormatBinary, false
	}
	return s.durable.WAL(), s.durable.CheckpointVersion, s.durable.WriteCheckpointTar, s.durable.WAL().Format(), true
}
