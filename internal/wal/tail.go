package wal

import (
	"errors"
	"fmt"
	"io"
)

// ErrTailTruncated reports that a TailReader's position was truncated away
// underneath it (a checkpoint removed the sealed segment it was reading).
// The stream cannot continue from this cursor position; the consumer must
// restart a Tail from its last applied version — which, being at or above
// the checkpoint version that justified the truncation, is still servable.
var ErrTailTruncated = errors.New("wal: tail reader overtaken by segment truncation")

// TailReader streams a log's records in append order from a version
// cursor, tolerating concurrent appends, rotations, and truncations. It is
// the leader-side transport of the change feed and the reader crash
// recovery replays the local log through.
//
// Safety: every read is bounded by a snapshot of the segment's committed
// byte count taken under the log's lock. Append advances that bookkeeping
// only after a fully successful write (and rolls the file back before
// giving up on a failed one), so the reader can never observe a torn or
// rolled-back frame — a torn frame inside the bound is real corruption and
// reported loudly.
//
// Cursor contract: the cursor is the highest event version the consumer
// has applied after consuming the stream in order (or a checkpoint version
// it bootstrapped from). A source record carries the version of the
// mutation after it, so a sealed segment whose maxVersion is at or below
// the cursor holds nothing an in-order consumer at this cursor has not
// seen, and is skipped entirely. Within the remaining segments, source
// records are delivered unconditionally (they are idempotent
// re-registrations) and event records only when their version exceeds the
// cursor. Crash recovery is such a consumer at cursor 0.
type TailReader struct {
	l       *Log
	after   uint64
	started bool
	seq     int   // segment currently being read
	off     int64 // committed bytes of that segment already consumed
	buf     []byte
}

// Tail returns a reader positioned after event version `after`. It takes
// no resources; readers may outlive rotations and are safe to abandon.
func (l *Log) Tail(after uint64) *TailReader {
	return &TailReader{l: l, after: after}
}

// Next returns the next record selected by the cursor. ok=false with a nil
// error means the reader is caught up with the log's committed bytes; call
// Next again later (the reader stays positioned). A non-nil error is
// terminal for this reader.
func (r *TailReader) Next() (Record, bool, error) {
	for {
		for len(r.buf) > 0 {
			rec, next, torn, err := DecodeFrame(r.buf, 0)
			if err != nil {
				return Record{}, false, err
			}
			if torn {
				return Record{}, false, fmt.Errorf("wal: torn frame inside committed bytes of segment %d at offset %d", r.seq, r.off)
			}
			r.buf = r.buf[next:]
			r.off += int64(next)
			if rec.Kind == KindSource || rec.Version > r.after {
				return rec, true, nil
			}
		}
		ok, err := r.fill()
		if err != nil || !ok {
			return Record{}, false, err
		}
	}
}

// Buffered reports whether the reader holds already-fetched frames, so a
// streaming server can batch flushes: flush when the buffer drains rather
// than per record.
func (r *TailReader) Buffered() bool { return len(r.buf) > 0 }

// fill loads the next span of committed bytes. ok=false with nil error
// means caught up.
func (r *TailReader) fill() (bool, error) {
	for {
		seg, last, ok := r.locate()
		if !ok {
			return false, ErrTailTruncated
		}
		if r.off < seg.bytes {
			// Only the committed bytes past the offset: a live reader woken
			// per commit reads each byte of the segment once.
			buf, err := r.readSpan(seg)
			if err != nil {
				return false, err
			}
			r.buf = buf
			return true, nil
		}
		if last {
			return false, nil
		}
		if !r.advance(seg.seq) {
			return false, ErrTailTruncated
		}
	}
}

// readSpan reads seg's committed bytes [r.off, seg.bytes), the span the
// reader has not consumed yet.
func (r *TailReader) readSpan(seg segment) ([]byte, error) {
	f, err := r.l.fs.Open(seg.path)
	if err != nil {
		return nil, fmt.Errorf("wal: tail read segment %d: %w", seg.seq, err)
	}
	defer f.Close()
	buf := make([]byte, seg.bytes-r.off)
	n, err := f.ReadAt(buf, r.off)
	switch {
	case n == len(buf):
		return buf, nil
	case errors.Is(err, io.EOF):
		return nil, fmt.Errorf("wal: segment %d holds %d bytes, committed bookkeeping says %d", seg.seq, r.off+int64(n), seg.bytes)
	default:
		return nil, fmt.Errorf("wal: tail read segment %d: %w", seg.seq, err)
	}
}

// locate snapshots the current segment's bookkeeping under the log's lock,
// choosing the starting segment on first use. The returned segment is a
// value copy: its bytes field is a consistent committed bound even while
// appends continue.
func (r *TailReader) locate() (seg segment, last bool, ok bool) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	segs := r.l.segs
	if !r.started {
		i := 0
		// after==0 means "everything": a log written before sources
		// carried the next mutation's version may hold source-only
		// segments of maxVersion 0, which a fresh consumer must read.
		for r.after > 0 && i < len(segs)-1 && segs[i].maxVersion <= r.after {
			i++
		}
		r.started = true
		r.seq = segs[i].seq
		r.off = 0
	}
	for i := range segs {
		if segs[i].seq == r.seq {
			return segs[i], i == len(segs)-1, true
		}
	}
	return segment{}, false, false
}

// advance moves to the first tracked segment past cur.
func (r *TailReader) advance(cur int) bool {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	for _, seg := range r.l.segs {
		if seg.seq > cur {
			r.seq = seg.seq
			r.off = 0
			return true
		}
	}
	return false
}
