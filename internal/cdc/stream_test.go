package cdc

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/doc"
	"repro/internal/wal"
)

func docRecord(v uint64, id string) wal.Record {
	return wal.Record{Version: v, Kind: wal.KindDocument, Doc: &doc.Document{ID: id, Title: id, Text: "text of " + id}}
}

func encodeAll(t *testing.T, recs ...wal.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoderFormat(&buf, wal.FormatBinary)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestBinaryStreamRoundTrip(t *testing.T) {
	want := []wal.Record{
		docRecord(1, "d1"),
		docRecord(2, "d2"),
		{Version: 2, Kind: KindHeartbeat},
	}
	dec := NewDecoder(bytes.NewReader(encodeAll(t, want...)))
	for i, w := range want {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Version != w.Version || got.Kind != w.Kind {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestBinaryStreamErrorClassification(t *testing.T) {
	valid := encodeAll(t, docRecord(1, "d1"))

	// Torn mid-frame: connection drop, not corruption.
	dec := NewDecoder(bytes.NewReader(valid[:len(valid)-3]))
	if _, err := dec.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame = %v, want io.ErrUnexpectedEOF", err)
	}

	// Torn header.
	dec = NewDecoder(bytes.NewReader(valid[:3]))
	if _, err := dec.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header = %v, want io.ErrUnexpectedEOF", err)
	}

	// CRC flip: loud corruption.
	crcFlip := append([]byte(nil), valid...)
	crcFlip[5] ^= 0xff
	dec = NewDecoder(bytes.NewReader(crcFlip))
	if _, err := dec.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("CRC flip = %v, want loud corruption error", err)
	}

	// Absurd length: rejected before allocation.
	huge := make([]byte, wal.FrameHeaderSize)
	huge[3] = 0xff // length = 0xff000000 > MaxRecordSize
	dec = NewDecoder(bytes.NewReader(huge))
	if _, err := dec.Next(); err == nil || !strings.Contains(err.Error(), "corrupt length") {
		t.Fatalf("huge length = %v, want corrupt-length error", err)
	}
}

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []wal.Record{docRecord(7, "d7"), {Version: 7, Kind: KindHeartbeat}}
	for _, rec := range want {
		if err := EncodeSSE(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewSSEDecoder(&buf)
	for i, w := range want {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.Version != w.Version || got.Kind != w.Kind {
			t.Fatalf("event %d = %+v, want %+v", i, got, w)
		}
		if w.Kind == wal.KindDocument && got.Doc.Text != w.Doc.Text {
			t.Fatalf("event %d payload = %+v", i, got.Doc)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestSSEDecoderTolerance(t *testing.T) {
	// Comments, unknown fields, blank padding, and data-less events are
	// ignored per the SSE spec; the record in data is authoritative.
	in := ": stream preamble\n\n" +
		"id: 3\nevent: document\nweird: field\ndata: {\"v\":3,\"kind\":\"document\",\"doc\":{\"id\":\"x\",\"title\":\"x\",\"text\":\"tx\"}}\n\n" +
		"id: 9\nevent: nothing\n\n" +
		": trailing comment\n\n"
	dec := NewSSEDecoder(strings.NewReader(in))
	rec, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 3 || rec.Doc == nil || rec.Doc.ID != "x" {
		t.Fatalf("decoded %+v", rec)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("end = %v, want io.EOF", err)
	}

	// Garbage data payload is loud corruption.
	dec = NewSSEDecoder(strings.NewReader("data: {not json\n\n"))
	if _, err := dec.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("garbage data = %v, want corruption error", err)
	}

	// Stream ending mid-event is torn.
	dec = NewSSEDecoder(strings.NewReader("id: 4\ndata: {\"v\":4}"))
	if _, err := dec.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-event end = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestEncoderMatchesWALFraming(t *testing.T) {
	// The CDC wire format must be byte-identical to the WAL's on-disk
	// format: a follower's stream decode and a crash recovery's replay
	// decode are the same code path.
	rec := docRecord(42, "same-bytes")
	var wire bytes.Buffer
	if err := NewEncoderFormat(&wire, wal.FormatBinary).Encode(rec); err != nil {
		t.Fatal(err)
	}
	var disk bytes.Buffer
	if err := wal.EncodeFrameFormat(&disk, rec, wal.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), disk.Bytes()) {
		t.Fatalf("wire framing (%d bytes) != WAL framing (%d bytes)", wire.Len(), disk.Len())
	}
}

func TestDecoderBatchingHint(t *testing.T) {
	data := encodeAll(t, docRecord(1, "a"), docRecord(2, "b"))
	dec := NewDecoder(bytes.NewReader(data))
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if !dec.Buffered() {
		t.Error("Buffered() = false with a full frame still in hand")
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if dec.Buffered() {
		t.Error("Buffered() = true at stream end")
	}
}

func fuzzSeedStream(n int) []byte {
	var buf bytes.Buffer
	enc := NewEncoderFormat(&buf, wal.FormatBinary)
	for v := 1; v <= n; v++ {
		if err := enc.Encode(docRecord(uint64(v), fmt.Sprintf("d%d", v))); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}
