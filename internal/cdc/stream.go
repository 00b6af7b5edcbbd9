package cdc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/wal"
)

// Encoder writes change-stream records in the binary frame format. It is a
// thin wrapper over the WAL's own codec, so the wire format and the
// on-disk format can never drift apart. Payloads are self-describing, so
// the Decoder side needs no format negotiation: a follower consumes a
// leader streaming either encoding (or a mix, when the leader's log was
// written under more than one -wal-format).
type Encoder struct {
	w      io.Writer
	buf    bytes.Buffer
	format wal.Format
}

// NewEncoderFormat returns an Encoder with an explicit payload format, so
// a leader serving -wal-format=json keeps its wire encoding aligned with
// its log encoding.
func NewEncoderFormat(w io.Writer, f wal.Format) *Encoder {
	return &Encoder{w: w, format: f}
}

// Encode writes one record as a frame.
func (e *Encoder) Encode(rec wal.Record) error {
	e.buf.Reset()
	if err := wal.EncodeFrameFormat(&e.buf, rec, e.format); err != nil {
		return err
	}
	_, err := e.w.Write(e.buf.Bytes())
	return err
}

// Decoder incrementally decodes a binary change stream. Errors classify
// three ways, mirroring the WAL's replay semantics:
//
//   - io.EOF: the stream ended cleanly on a frame boundary.
//   - io.ErrUnexpectedEOF: the stream ended mid-frame (torn) — for a
//     network stream this just means the connection dropped; reconnect and
//     resume from the cursor.
//   - anything else: corruption (bad length, CRC mismatch, undecodable
//     payload) and must be treated as fatal for the connection.
type Decoder struct {
	r     *bufio.Reader
	frame []byte
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64*1024)}
}

// Next decodes and returns the next record.
func (d *Decoder) Next() (wal.Record, error) {
	var hdr [wal.FrameHeaderSize]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return wal.Record{}, err // io.EOF clean, io.ErrUnexpectedEOF torn
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > wal.MaxRecordSize {
		return wal.Record{}, fmt.Errorf("cdc: frame declares %d payload bytes (corrupt length)", n)
	}
	need := wal.FrameHeaderSize + int(n)
	if cap(d.frame) < need {
		d.frame = make([]byte, need)
	}
	d.frame = d.frame[:need]
	copy(d.frame, hdr[:])
	if _, err := io.ReadFull(d.r, d.frame[wal.FrameHeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return wal.Record{}, err
	}
	rec, _, torn, err := wal.DecodeFrame(d.frame, 0)
	if err != nil {
		return wal.Record{}, err
	}
	if torn {
		// Unreachable: the frame was assembled to its declared length.
		return wal.Record{}, io.ErrUnexpectedEOF
	}
	return rec, nil
}

// Buffered reports whether already-received bytes remain undecoded, so an
// applier can batch: keep accumulating while data is in hand, apply when
// the stream would block.
func (d *Decoder) Buffered() bool { return d.r.Buffered() > 0 }
