package cdc

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/wal"
)

// FuzzDecodeChangeStream fuzzes both renderings of the change stream — the
// binary frame decoder and the SSE decoder — plus the applier-side cursor
// arithmetic, with arbitrary bytes and an arbitrary resume cursor. This is
// exactly what a follower (or any external CDC subscriber) feeds itself
// after a reconnect: possibly torn, possibly corrupted, possibly
// overlapping its cursor, possibly a stale stream from the wrong epoch.
// Invariants: no decoder panics; every stream terminates with a classified
// outcome (clean EOF / torn / loud corruption); and the cursor skip+gap
// logic never applies a version twice and never applies past a gap.
func FuzzDecodeChangeStream(f *testing.F) {
	valid := fuzzSeedStream(3)
	f.Add(valid, uint64(0))
	f.Add(valid, uint64(2))                                   // overlapping cursor: 1,2 skipped, 3 applied
	f.Add(valid, uint64(9))                                   // fully stale stream: everything skipped
	f.Add(valid[:len(valid)-4], uint64(0))                    // torn final frame
	f.Add(valid[:wal.FrameHeaderSize-2], uint64(0))           // torn header
	f.Add([]byte{}, uint64(0))                                // empty stream
	f.Add([]byte("id: 1\nevent: x\ndata: }{\n\n"), uint64(0)) // garbage SSE data

	// CRC flip on an otherwise intact stream.
	crcFlip := append([]byte(nil), valid...)
	crcFlip[5] ^= 0xff
	f.Add(crcFlip, uint64(0))

	// Gapped stream: versions jump 1 -> 3; the applier must stop, not
	// silently apply out of order.
	var gapped bytes.Buffer
	genc := NewEncoderFormat(&gapped, wal.FormatBinary)
	for _, v := range []uint64{1, 3} {
		if err := genc.Encode(docRecord(v, "g")); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(gapped.Bytes(), uint64(0))

	// Duplicated version mid-stream (leader re-serving a resumed segment).
	var dup bytes.Buffer
	denc := NewEncoderFormat(&dup, wal.FormatBinary)
	for _, v := range []uint64{1, 2, 2, 3} {
		if err := denc.Encode(docRecord(v, "d")); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(dup.Bytes(), uint64(0))

	// A heartbeat and a source record interleaved with events.
	var mixed bytes.Buffer
	menc := NewEncoderFormat(&mixed, wal.FormatBinary)
	for _, rec := range []wal.Record{
		docRecord(1, "m1"),
		{Version: 1, Kind: KindHeartbeat},
		{Version: 1, Kind: wal.KindSource},
		docRecord(2, "m2"),
	} {
		if err := menc.Encode(rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(mixed.Bytes(), uint64(0))

	// Valid SSE rendering of the same records.
	var sse bytes.Buffer
	for v := uint64(1); v <= 3; v++ {
		if err := EncodeSSE(&sse, docRecord(v, "s")); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(sse.Bytes(), uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, cursor uint64) {
		applyStream(t, data, cursor, func(r io.Reader) streamNext { return NewDecoder(r).Next })
		applyStream(t, data, cursor, func(r io.Reader) streamNext { return NewSSEDecoder(r).Next })
	})
}

type streamNext func() (wal.Record, error)

// applyStream drives one decoder over the input and mimics the follower's
// apply loop: heartbeats and sources pass through, event versions at or
// below the cursor are skipped, the next expected version is applied, and
// anything else is a gap that stops the stream.
func applyStream(t *testing.T, data []byte, cursor uint64, mk func(io.Reader) streamNext) {
	t.Helper()
	next := mk(bytes.NewReader(data))
	applied := make(map[uint64]bool)
	expect := cursor + 1
	for i := 0; i < 10000; i++ {
		rec, err := next()
		if err != nil {
			// io.EOF clean, io.ErrUnexpectedEOF torn, anything else loud
			// corruption — all terminal, none skippable.
			return
		}
		switch rec.Kind {
		case KindHeartbeat, wal.KindSource:
			continue
		}
		if rec.Version < expect {
			continue // overlap with the cursor: already applied
		}
		if rec.Version > expect {
			return // gap: the applier must refuse to continue
		}
		if applied[rec.Version] {
			t.Fatalf("version %d applied twice", rec.Version)
		}
		applied[rec.Version] = true
		expect++
	}
}
