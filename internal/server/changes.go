package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cdc"
	"repro/internal/durable"
	"repro/internal/wal"
)

// This file is the HTTP face of replication and CDC: the leader's
// cursor-resumable change feed (GET /v1/changes) and checkpoint shipping
// (GET /v1/replica/checkpoint), plus follower-role serving (writes answer
// 421 pointing at the leader; ?min_version= gives read-your-writes).

// ChangeFeedConfig wires a durable store's replication surfaces into the
// server. Zero-value fields disable their endpoint.
type ChangeFeedConfig struct {
	// Log is the leader's write-ahead log, tail-read to serve the feed.
	Log *wal.Log
	// Floor returns the lowest servable cursor — the store's checkpoint
	// version, below which WAL segments may already be truncated. Cursors
	// below the floor answer 410 Gone (re-bootstrap from the checkpoint).
	Floor func() uint64
	// CheckpointTar streams the latest checkpoint as a tar archive for
	// follower bootstrap; durable.ErrNoCheckpoint answers 404.
	CheckpointTar func(io.Writer) error
	// Format is the payload encoding for binary-framed feed responses
	// (zero value wal.FormatBinary). Wired from the store's -wal-format so
	// the wire matches the log; decoding is self-describing either way.
	Format wal.Format
}

// WithChangeFeed enables GET /v1/changes (and /v1/replica/checkpoint when
// cfg.CheckpointTar is set) over the given feed. Followers may re-serve
// their own feed, chaining replication.
func WithChangeFeed(cfg ChangeFeedConfig) Option {
	return func(s *Server) { s.changeFeed = &cfg }
}

// WithFollower marks this server a read-only replica of the leader at the
// given URL: ingest endpoints answer 421 Misdirected Request naming the
// leader. 421 (not 403 or 405) because the endpoint exists and the method
// is right — this node is just not the one that can take the write.
func WithFollower(leader string) Option {
	return func(s *Server) { s.leaderURL = leader }
}

// WithReplication feeds the "replication" section of GET /v1/stats
// (follower lag/cursor posture).
func WithReplication(stats func() any) Option {
	return func(s *Server) { s.replStats = stats }
}

// Change-feed serving parameters.
const (
	// defaultHeartbeat paces liveness frames on an idle stream; clients use
	// them for lag measurement and dead-connection detection.
	defaultHeartbeat = 10 * time.Second
	// minHeartbeat stops a client from turning the feed into a busy loop.
	minHeartbeat = 100 * time.Millisecond
	// maxFreshnessWait bounds a ?min_version= wait when no verify timeout
	// is configured: an unreachable version must answer 504, not hang.
	maxFreshnessWait = 10 * time.Second
)

// rejectFollowerWrite answers 421 on a follower; reports whether handled.
// The error body names the leader URL clients should redirect writes to.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if s.leaderURL == "" {
		return false
	}
	w.Header().Set("Location", s.leaderURL)
	writeErrorBody(w, http.StatusMisdirectedRequest, map[string]any{"leader": s.leaderURL},
		"this node is a read-only follower; send writes to the leader")
	return true
}

// waitMinVersion implements read-your-writes freshness: a verify request
// carrying ?min_version=N (the version an earlier ingest acknowledged)
// waits until this node has applied N — on a follower, until replication
// catches up — before the verification runs. Reports false with the
// response written (504 when the node cannot catch up in time) when the
// request must not proceed.
func (s *Server) waitMinVersion(w http.ResponseWriter, r *http.Request) bool {
	raw := r.URL.Query().Get("min_version")
	if raw == "" {
		return true
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "min_version must be an unsigned integer, got %q", raw)
		return false
	}
	wait := s.verifyTimeout
	if wait <= 0 || wait > maxFreshnessWait {
		wait = maxFreshnessWait
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if err := s.pipeline.Lake().WaitApplied(ctx, v); err != nil {
		if r.Context().Err() != nil {
			writeError(w, statusClientClosedRequest, "freshness wait: client closed request")
		} else {
			writeError(w, http.StatusGatewayTimeout,
				"not caught up: need version %d, applied through %d", v, s.pipeline.Lake().Version())
		}
		return false
	}
	return true
}

// handleChanges serves the change feed: every WAL record past the cursor,
// in version order, then live records as they commit, with heartbeats
// pacing idle periods. The stream ends when the client disconnects, the
// optional ?wait= session budget elapses, or the reader is overtaken by a
// segment truncation — in every case the client just reconnects from its
// cursor. Binary frames by default; ?format=sse (or Accept:
// text/event-stream) selects Server-Sent Events.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	cf := s.changeFeed
	if cf == nil {
		writeError(w, http.StatusNotFound, "this deployment serves no change feed (run serve with -data-dir)")
		return
	}
	q := r.URL.Query()
	var from uint64
	if raw := q.Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "from must be an unsigned integer, got %q", raw)
			return
		}
		from = v
	}
	if cf.Floor != nil {
		if floor := cf.Floor(); from < floor {
			// The WAL below the floor is truncated; the JSON carries the
			// floor so generic CDC clients can decide between restarting
			// from the floor (tolerating the gap) and re-bootstrapping.
			writeErrorBody(w, http.StatusGone, map[string]any{"floor": floor},
				"cursor below the leader's floor; bootstrap from /v1/replica/checkpoint")
			return
		}
	}
	heartbeat := defaultHeartbeat
	if raw := q.Get("heartbeat"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "heartbeat must be a positive duration, got %q", raw)
			return
		}
		if d < minHeartbeat {
			d = minHeartbeat
		}
		heartbeat = d
	}
	ctx := r.Context()
	if raw := q.Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "wait must be a positive duration, got %q", raw)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	sse := q.Get("format") == "sse" || strings.Contains(r.Header.Get("Accept"), cdc.ContentTypeSSE)
	var writeRec func(wal.Record) error
	if sse {
		w.Header().Set("Content-Type", cdc.ContentTypeSSE)
		w.Header().Set("Cache-Control", "no-store")
		writeRec = func(rec wal.Record) error { return cdc.EncodeSSE(w, rec) }
	} else {
		w.Header().Set("Content-Type", cdc.ContentTypeFrames)
		writeRec = cdc.NewEncoderFormat(w, cf.Format).Encode
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.cdcActive.Add(1)
	defer s.cdcActive.Add(-1)

	lake := s.pipeline.Lake()
	reader := cf.Log.Tail(from)
	cursor := from
	for {
		rec, ok, err := reader.Next()
		if err != nil {
			// Overtaken by truncation (or the segment vanished): end the
			// stream; the client reconnects from its cursor, which is at or
			// above the checkpoint version that justified the truncation.
			flush()
			return
		}
		if ok {
			if rec.Kind != wal.KindSource {
				// Gate on the leader's own application: a WAL record whose
				// apply hasn't completed here is not yet readable here, and
				// shipping it early would let a follower answer fresher than
				// its leader.
				if lake.WaitApplied(ctx, rec.Version) != nil {
					flush()
					return
				}
			}
			if writeRec(rec) != nil {
				return
			}
			s.cdcRecords.Inc()
			if rec.Kind != wal.KindSource && rec.Version > cursor {
				// A source record carries the version of the mutation
				// after it, which need not have committed yet.
				cursor = rec.Version
			}
			if !reader.Buffered() {
				flush()
			}
			continue
		}
		// Caught up: wait for the next version, a heartbeat tick, or the
		// session ending. (A source record arriving without a version bump
		// is picked up at the next tick — heartbeat-bounded latency.)
		flush()
		tick, cancel := context.WithTimeout(ctx, heartbeat)
		err = lake.WaitApplied(tick, cursor+1)
		cancel()
		switch {
		case err == nil:
		case ctx.Err() != nil:
			return // client gone or ?wait= budget spent
		case errors.Is(err, context.DeadlineExceeded):
			if writeRec(wal.Record{Version: lake.Version(), Kind: cdc.KindHeartbeat}) != nil {
				return
			}
			flush()
		default:
			return // lake closed: shutting down
		}
	}
}

// handleReplicaCheckpoint streams the latest checkpoint tar for follower
// bootstrap. A failure mid-stream can only truncate the tar — the client's
// restore validates the archive (META present, paths sane) before
// promoting anything, so a torn download never becomes a half-checkpoint.
func (s *Server) handleReplicaCheckpoint(w http.ResponseWriter, r *http.Request) {
	cf := s.changeFeed
	if cf == nil || cf.CheckpointTar == nil {
		writeError(w, http.StatusNotFound, "this deployment ships no checkpoints (run serve with -data-dir)")
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	if err := cf.CheckpointTar(w); err != nil {
		if errors.Is(err, durable.ErrNoCheckpoint) {
			// Nothing was written yet (the tar writer validates META before
			// its first byte), so a clean 404 is still possible.
			writeError(w, http.StatusNotFound, "no checkpoint yet; stream /v1/changes from 0 instead")
		}
		// Mid-stream errors have no channel left but the truncated body.
	}
}
