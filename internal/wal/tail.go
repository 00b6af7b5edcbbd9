package wal

import (
	"bytes"
	"errors"
	"fmt"
)

// EncodeFrameFormat appends rec to buf in the log's frame format (length +
// CRC + self-describing payload) with payload format f. It is the single
// encode path shared by the log itself and the CDC change stream, so every
// consumer speaks exactly the on-disk format; the change feed keeps its
// wire encoding aligned with the leader's -wal-format.
func EncodeFrameFormat(buf *bytes.Buffer, rec Record, f Format) error {
	return appendFrame(buf, rec, f)
}

// DecodeFrame decodes the frame starting at data[off]. It returns the
// record and the offset just past the frame. torn reports an incomplete
// frame (more bytes needed); err reports corruption (bad length, CRC
// mismatch, undecodable payload).
func DecodeFrame(data []byte, off int) (rec Record, next int, torn bool, err error) {
	return decodeFrame(data, off)
}

// ErrTailTruncated reports that a TailReader's position was truncated away
// underneath it (a checkpoint removed the sealed segment it was reading).
// The stream cannot continue from this cursor position; the consumer must
// restart a Tail from its last applied version — which, being at or above
// the checkpoint version that justified the truncation, is still servable.
var ErrTailTruncated = errors.New("wal: tail reader overtaken by segment truncation")

// TailReader streams a log's records in append order from a version
// cursor, tolerating concurrent appends, rotations, and truncations. It is
// the leader-side transport of the change feed.
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
// it bootstrapped from). Sealed segments whose maxVersion is at or below
// the cursor are skipped entirely — including source-only segments
// (maxVersion 0): segment order is version order, so an in-order consumer
// at this cursor has necessarily already seen their contents. Within the
// remaining segments, source records are delivered unconditionally (they
// are idempotent re-registrations) and event records only when their
// version exceeds the cursor.
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
			rec, next, torn, err := decodeFrame(r.buf, 0)
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
			data, err := r.l.fs.ReadFile(seg.path)
			if err != nil {
				return false, fmt.Errorf("wal: tail read segment %d: %w", seg.seq, err)
			}
			if int64(len(data)) < seg.bytes {
				return false, fmt.Errorf("wal: segment %d holds %d bytes, committed bookkeeping says %d", seg.seq, len(data), seg.bytes)
			}
			r.buf = append(r.buf[:0], data[r.off:seg.bytes]...)
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
		// after==0 means "everything": source-only segments report
		// maxVersion 0 and must not be prefix-skipped for a fresh consumer.
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
