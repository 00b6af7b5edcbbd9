package cdc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
)

// FollowOptions configure a Follow loop. Records reach Apply in batches
// of at most applyBatch.
type FollowOptions struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Leader string
	// Client is the HTTP client. nil uses a zero-timeout default — the
	// stream is long-lived, so an overall client timeout would sever it.
	Client *http.Client
	// From returns the cursor to resume from: the highest event version the
	// consumer has committed. Called before every (re)connection, so a
	// restart after partial progress resumes precisely.
	From func() uint64
	// Apply consumes an ordered batch of decoded records (events and
	// sources; heartbeats are filtered out). An Apply error is fatal to the
	// loop — it signals local state divergence, not a transport problem.
	Apply func(recs []wal.Record) error
	// OnHeartbeat, if set, observes the leader's published version from
	// heartbeat frames (for lag reporting).
	OnHeartbeat func(leaderVersion uint64)
	// Backoff is the reconnect backoff floor (default 250ms, doubling to a
	// 4s ceiling; reset by any successful read).
	Backoff time.Duration
}

// applyBatch caps one Apply batch, matching the recovery replay batch.
const applyBatch = 256

// applyError wraps an Apply failure so the retry loop can tell "local
// apply diverged" (fatal) apart from transport errors (reconnect).
type applyError struct{ err error }

func (e applyError) Error() string { return e.err.Error() }
func (e applyError) Unwrap() error { return e.err }

// Follow tails the leader's change feed and applies it until ctx is
// cancelled (returns nil), the leader reports the cursor unservable
// (ErrSnapshotRequired — re-bootstrap from checkpoint), or Apply fails
// (its error). Transport failures reconnect with backoff, resuming from
// From()'s cursor.
func Follow(ctx context.Context, opts FollowOptions) error {
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	const maxBackoff = 4 * time.Second
	delay := backoff
	for {
		madeProgress, err := streamOnce(ctx, client, opts)
		if ctx.Err() != nil {
			return nil
		}
		switch e := err.(type) {
		case nil:
			// Stream ended cleanly (leader closed it, e.g. segment
			// truncation under the reader); reconnect immediately.
			delay = backoff
			continue
		case applyError:
			return e.err
		}
		if err == ErrSnapshotRequired {
			return err
		}
		if madeProgress {
			delay = backoff
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// streamOnce runs one connection: request, decode, apply. madeProgress
// reports whether any record was applied (resets backoff).
func streamOnce(ctx context.Context, client *http.Client, opts FollowOptions) (madeProgress bool, err error) {
	from := uint64(0)
	if opts.From != nil {
		from = opts.From()
	}
	u := strings.TrimSuffix(opts.Leader, "/") + ChangesPath + "?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", ContentTypeFrames)
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, ErrSnapshotRequired
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("cdc: leader answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	dec := NewDecoder(resp.Body)
	batch := make([]wal.Record, 0, applyBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := opts.Apply(batch); err != nil {
			return applyError{err}
		}
		madeProgress = true
		batch = batch[:0]
		return nil
	}
	for {
		rec, derr := dec.Next()
		if derr != nil {
			if ferr := flush(); ferr != nil {
				return madeProgress, ferr
			}
			if derr == io.EOF {
				return madeProgress, nil
			}
			return madeProgress, derr
		}
		if rec.Kind == KindHeartbeat {
			if ferr := flush(); ferr != nil {
				return madeProgress, ferr
			}
			if opts.OnHeartbeat != nil {
				opts.OnHeartbeat(rec.Version)
			}
			continue
		}
		batch = append(batch, rec)
		// Apply when the batch is full or the stream would block: batching
		// amortizes commits during catch-up without adding latency when the
		// stream is drip-feeding live writes.
		if len(batch) >= applyBatch || !dec.Buffered() {
			if ferr := flush(); ferr != nil {
				return madeProgress, ferr
			}
		}
	}
}

// FetchCheckpoint requests the leader's latest checkpoint as a tar stream
// for follower bootstrap. The caller owns the ReadCloser. ErrNoCheckpoint
// reports a leader that has not checkpointed yet.
func FetchCheckpoint(ctx context.Context, client *http.Client, leader string) (io.ReadCloser, error) {
	if client == nil {
		client = &http.Client{}
	}
	u := strings.TrimSuffix(leader, "/") + CheckpointPath
	if _, err := url.Parse(u); err != nil {
		return nil, fmt.Errorf("cdc: bad leader url %q: %w", leader, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp.Body, nil
	case http.StatusNotFound:
		resp.Body.Close()
		return nil, ErrNoCheckpoint
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("cdc: checkpoint fetch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
}
