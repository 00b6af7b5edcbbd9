package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// fuzzSeedFrames builds a buffer of n valid frames for the fuzz corpus,
// alternating payload encodings so the corpus exercises the format-tag
// dispatch from the first run.
func fuzzSeedFrames(n int) []byte {
	var buf bytes.Buffer
	for v := 1; v <= n; v++ {
		f := FormatBinary
		if v%2 == 0 {
			f = FormatJSON
		}
		if err := EncodeFrameFormat(&buf, docRecord(uint64(v), fmt.Sprintf("d%d", v)), f); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// FuzzDecodeFrames fuzzes the WAL's record decoder with arbitrary bytes —
// the exact input replay sees after a crash left a torn tail, a partial
// header, bit rot, or garbage in a segment file. The decoder must never
// panic, never allocate from a corrupt length, always make forward
// progress on valid frames, and classify every failure as either torn
// (quiet: an interrupted append) or corrupt (loud error) — silently
// skipping bytes is data loss.
func FuzzDecodeFrames(f *testing.F) {
	valid := fuzzSeedFrames(3)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                     // torn final frame
	f.Add(valid[:FrameHeaderSize-2])                // torn header
	f.Add([]byte{})                                 // empty segment
	f.Add([]byte("not a frame at allated garbage")) // garbage
	// Corrupt CRC on an otherwise intact frame.
	crcFlip := append([]byte(nil), valid...)
	crcFlip[5] ^= 0xff
	f.Add(crcFlip)
	// Corrupt payload byte (CRC mismatch downstream).
	payloadFlip := append([]byte(nil), valid...)
	payloadFlip[FrameHeaderSize+3] ^= 0x10
	f.Add(payloadFlip)
	// Absurd declared length (must be rejected, not allocated).
	huge := make([]byte, FrameHeaderSize)
	binary.LittleEndian.PutUint32(huge[0:4], uint32(MaxRecordSize+1))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, next, torn, err := DecodeFrame(data, off)
			if torn && err != nil {
				t.Fatalf("offset %d: both torn and corrupt (%v)", off, err)
			}
			if torn || err != nil {
				// Either outcome ends replay; a torn tail is truncated,
				// corruption is surfaced. Both are terminal, never skipped.
				return
			}
			if next <= off {
				t.Fatalf("offset %d: decode made no progress (next %d)", off, next)
			}
			if next > len(data) {
				t.Fatalf("offset %d: decode overran the buffer (next %d > %d)", off, next, len(data))
			}
			// A frame that decodes must round-trip: its payload length is
			// consistent with the consumed bytes.
			if rec.Kind == "" && rec.Version == 0 && rec.Table == nil && rec.Doc == nil && rec.Triple == nil && rec.Source == nil {
				// Legal (an empty JSON object) — just must not panic.
				_ = rec
			}
			off = next
		}
	})
}

// FuzzDecodeBinaryRecord fuzzes the binary payload decoder directly. Each
// fuzzed byte string is also wrapped in a freshly computed valid frame
// (length + CRC) and fed through DecodeFrame, modeling CRC-valid garbage —
// a buggy writer, not bit rot — which is exactly the input the binReader
// bounds checks exist for. Invariants: never panic, never allocate from a
// corrupt count, frame classification stays exclusive (torn XOR corrupt),
// and any payload that decodes must survive an encode/decode round trip.
func FuzzDecodeBinaryRecord(f *testing.F) {
	for v := 1; v <= 4; v++ {
		f.Add(encodeRecordBinary(nil, docRecord(uint64(v), fmt.Sprintf("d%d", v))))
	}
	f.Add(encodeRecordBinary(nil, Record{Version: 9, Kind: "heartbeat"}))
	f.Add([]byte{binTag})
	f.Add([]byte{binTag, binKindTable, 1, 0})
	// Table payload with an absurd column count (must be rejected before
	// allocating): tag, table code, version 1, ts 0, three empty strings,
	// then ncols = 0xFFFFFFF.
	f.Add([]byte{binTag, binKindTable, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecordBinary(payload)
		if err == nil {
			// Whatever decoded must round-trip as a record (bytes may differ:
			// uvarints are not canonical, so compare structurally).
			again, err2 := decodeRecordBinary(encodeRecordBinary(nil, rec))
			if err2 != nil {
				t.Fatalf("re-encode of decoded record does not decode: %v (rec %+v)", err2, rec)
			}
			if !reflect.DeepEqual(again, rec) {
				t.Fatalf("round trip diverged\n got: %+v\nwant: %+v", again, rec)
			}
		}

		// The same payload behind a valid CRC frame: DecodeFrame must agree
		// with the payload decoder and classify failures as corruption
		// (loud), never torn — the frame itself is complete.
		frame := buildFrame(payload)
		frec, next, torn, ferr := DecodeFrame(frame, 0)
		if torn {
			t.Fatalf("complete CRC-valid frame classified as torn (payload %x)", payload)
		}
		if len(payload) > 0 && payload[0] == binTag {
			if (err == nil) != (ferr == nil) {
				t.Fatalf("frame/payload decoders disagree: payload err %v, frame err %v", err, ferr)
			}
		}
		if ferr == nil {
			if next != len(frame) {
				t.Fatalf("frame decode consumed %d of %d bytes", next, len(frame))
			}
			if len(payload) > 0 && payload[0] == binTag && !reflect.DeepEqual(frec, rec) {
				t.Fatalf("frame decode diverged from payload decode\n got: %+v\nwant: %+v", frec, rec)
			}
		}
	})
}

// TestTailStreamsAllRecords checks that a TailReader at cursor 0 re-reads
// everything from disk in append order across rotations — the streaming
// path recovery uses instead of buffering the tail in memory.
func TestTailStreamsAllRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	const n = 40
	for v := uint64(1); v <= n; v++ {
		if err := l.Append(docRecord(v, fmt.Sprintf("d%03d", v))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", l.Stats().Segments)
	}
	got := drain(t, l.Tail(0))
	if len(got) != n {
		t.Fatalf("Tail(0) delivered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Version != uint64(i+1) {
			t.Fatalf("record %d has version %d, want %d (order lost)", i, r.Version, i+1)
		}
	}
	// A second reader sees the same (reading consumes nothing on disk).
	if count := len(drain(t, l.Tail(0))); count != n {
		t.Fatalf("second Tail(0) delivered %d records, want %d", count, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
