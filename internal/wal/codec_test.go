package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// buildFrame wraps an arbitrary payload in a valid frame header (correct
// length and CRC), so tests and fuzzers can reach the payload decoder
// without dying at the CRC check.
func buildFrame(payload []byte) []byte {
	frame := make([]byte, FrameHeaderSize, FrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseFormat(t *testing.T) {
	cases := []struct {
		in      string
		want    Format
		wantErr bool
	}{
		{"", FormatBinary, false},
		{"binary", FormatBinary, false},
		{"json", FormatJSON, false},
		{"JSON", 0, true},
		{"protobuf", 0, true},
	}
	for _, c := range cases {
		got, err := ParseFormat(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseFormat(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseFormat(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if FormatBinary.String() != "binary" || FormatJSON.String() != "json" {
		t.Errorf("Format.String: binary=%q json=%q", FormatBinary, FormatJSON)
	}
}

// codecCases covers every record kind the system constructs, including the
// heartbeat shape (a Kind with no payload struct, encoded via the named
// fallback) and awkward payloads: empty strings, unicode, ragged rows,
// negative trust deltas, a zero TS.
func codecCases() []Record {
	return []Record{
		{Version: 1, Kind: KindDocument, TS: 1712345678901234567,
			Doc: &doc.Document{ID: "d1", Title: "títle ünicode", Text: "body text\nwith newline", EntityID: "e9", SourceID: "s1"}},
		{Version: 2, Kind: KindTable, TS: 2,
			Table: &table.Table{ID: "t1", Caption: "1954 u.s. open", SourceID: "s1",
				Columns: []string{"player", "place", "cash prize"},
				Rows:    [][]string{{"tommy bolt", "3", "1500"}, {"sam snead"}, nil}}},
		{Version: 3, Kind: KindTriple,
			Triple: &kg.Triple{Subject: "meagan good", Predicate: "starred in", Object: "", SourceID: "s2"}},
		{Version: 4, Kind: KindSource,
			Source: &datalake.Source{ID: "s1", Name: "golf almanac", TrustPrior: 0.85}},
		{Version: 5, Kind: "heartbeat"},
		{Version: 6, Kind: KindTable}, // structural kind, nil payload: named fallback
		{Kind: KindDocument, Doc: &doc.Document{}},
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	for i, rec := range codecCases() {
		payload := encodeRecordBinary(nil, rec)
		if payload[0] != binTag {
			t.Fatalf("case %d: payload tag = 0x%02x, want 0x%02x", i, payload[0], binTag)
		}
		got, err := decodeRecordBinary(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("case %d: round trip mismatch\n got: %+v\nwant: %+v", i, got, rec)
		}
	}
}

// TestFrameRoundTripBothFormats drives the full frame path (header + CRC +
// payload) for each encoding and checks the decoder needs no format
// knowledge.
func TestFrameRoundTripBothFormats(t *testing.T) {
	for _, f := range []Format{FormatBinary, FormatJSON} {
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			recs := codecCases()
			for _, rec := range recs {
				if err := EncodeFrameFormat(&buf, rec, f); err != nil {
					t.Fatal(err)
				}
			}
			data, off := buf.Bytes(), 0
			for i, want := range recs {
				rec, next, torn, err := DecodeFrame(data, off)
				if err != nil || torn {
					t.Fatalf("record %d: torn=%v err=%v", i, torn, err)
				}
				if !reflect.DeepEqual(rec, want) {
					t.Errorf("record %d mismatch\n got: %+v\nwant: %+v", i, rec, want)
				}
				off = next
			}
			if off != len(data) {
				t.Fatalf("decoded through %d of %d bytes", off, len(data))
			}
		})
	}
}

// TestBinaryEncodingSmaller pins the tentpole's size claim at the codec
// level: the binary payload must be at least 30% smaller than JSON for a
// representative record mix (the benchmark gate asserts the same bound on
// whole frames, CI-measured).
func TestBinaryEncodingSmaller(t *testing.T) {
	var jsonBytes, binBytes int
	for _, rec := range codecCases() {
		j, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(j)
		binBytes += len(encodeRecordBinary(nil, rec))
	}
	if float64(binBytes) > 0.7*float64(jsonBytes) {
		t.Errorf("binary payloads are %d bytes vs %d JSON (ratio %.2f, want <= 0.70)",
			binBytes, jsonBytes, float64(binBytes)/float64(jsonBytes))
	}
}

func TestBinaryDecodeCorruptionClassified(t *testing.T) {
	valid := encodeRecordBinary(nil, codecCases()[0])
	cases := []struct {
		name    string
		payload []byte
		substr  string
	}{
		{"empty payload", []byte{}, "no kind code"},
		{"tag only", []byte{binTag}, "no kind code"},
		{"unknown kind code", []byte{binTag, 0xEE, 1, 0}, "unknown binary kind code"},
		{"truncated mid-string", valid[:len(valid)-3], ""},
		{"trailing garbage", append(append([]byte{}, valid...), 0xAB), "trailing bytes"},
		{"overlong string length", append(append([]byte{}, valid[:4]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeRecordBinary(c.payload)
			if err == nil {
				t.Fatal("corrupt payload decoded without error")
			}
			if c.substr != "" && !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not mention %q", err, c.substr)
			}
		})
	}
}

// TestDecodeFrameUnknownTag: a CRC-valid frame whose payload starts with
// neither 0x7B nor 0x01 is corruption (loud), never torn (quiet).
func TestDecodeFrameUnknownTag(t *testing.T) {
	frame := buildFrame([]byte{0x42, 0x00, 0x00})
	_, _, torn, err := DecodeFrame(frame, 0)
	if torn {
		t.Fatal("unknown tag classified as torn")
	}
	if err == nil || !strings.Contains(err.Error(), "unknown payload format tag") {
		t.Fatalf("err = %v, want unknown-format-tag corruption", err)
	}
	// Empty payload: same classification (loud).
	_, _, torn, err = DecodeFrame(buildFrame(nil), 0)
	if torn || err == nil {
		t.Fatalf("empty payload: torn=%v err=%v, want loud error", torn, err)
	}
}

// TestMixedFormatReplayAndTail writes one log under alternating formats
// across reopens and checks that a fresh Open and a TailReader both see
// every record in order — the no-migration guarantee.
func TestMixedFormatReplayAndTail(t *testing.T) {
	cases := []struct {
		name    string
		formats []Format
	}{
		{"json-then-binary", []Format{FormatJSON, FormatBinary}},
		{"binary-then-json", []Format{FormatBinary, FormatJSON}},
		{"interleaved", []Format{FormatJSON, FormatBinary, FormatJSON, FormatBinary}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			v := uint64(0)
			// Each phase reopens the SAME log dir under the next format and
			// appends into the same active segment: mixed-format segments,
			// not just mixed-format logs.
			for _, f := range c.formats {
				l, _ := openReplay(t, dir, Options{Sync: SyncNone, Format: f})
				for i := 0; i < 3; i++ {
					v++
					if err := l.Append(docRecord(v, fmt.Sprintf("d%03d", v))); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			total := int(v)
			l, replayed := openReplay(t, dir, Options{Sync: SyncNone})
			defer l.Close()
			if len(replayed) != total {
				t.Fatalf("open replayed %d records, want %d", len(replayed), total)
			}
			tail := l.Tail(0)
			for i := 1; i <= total; i++ {
				rec, ok, err := tail.Next()
				if err != nil || !ok {
					t.Fatalf("tail record %d: ok=%v err=%v", i, ok, err)
				}
				if rec.Version != uint64(i) || rec.Doc == nil || rec.Doc.ID != fmt.Sprintf("d%03d", i) {
					t.Fatalf("tail record %d out of order or lossy: %+v", i, rec)
				}
			}
			if _, ok, err := tail.Next(); ok || err != nil {
				t.Fatalf("tail past end: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestDumpSegmentMixedFormats: the waldump primitive streams a mixed log
// as records (JSON-marshalable), reports a torn tail without truncating
// the file, and fails loudly on mid-segment corruption.
func TestDumpSegmentMixedFormats(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone, Format: FormatJSON})
	if err := l.Append(docRecord(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openReplay(t, dir, Options{Sync: SyncNone}) // binary default
	if err := l.Append(docRecord(2, "b"), docRecord(3, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no segment files listed")
	}
	var dumped []Record
	for _, p := range paths {
		torn, err := DumpSegment(p, func(r Record) error {
			if _, err := json.Marshal(r); err != nil {
				return err
			}
			dumped = append(dumped, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if torn != 0 {
			t.Fatalf("intact segment %s reports %d torn bytes", p, torn)
		}
	}
	if len(dumped) != 3 {
		t.Fatalf("dumped %d records, want 3", len(dumped))
	}
	for i, r := range dumped {
		if r.Version != uint64(i+1) {
			t.Fatalf("dump order lost: record %d has version %d", i, r.Version)
		}
	}

	// Torn tail: chop the last segment; dump must report it and leave the
	// file untouched.
	last := paths[len(paths)-1]
	data := readFileT(t, last)
	writeFileT(t, last, data[:len(data)-5])
	count := 0
	torn, err := DumpSegment(last, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if torn == 0 {
		t.Fatal("torn tail not reported")
	}
	if after := readFileT(t, last); len(after) != len(data)-5 {
		t.Fatalf("DumpSegment modified the file: %d bytes, want %d", len(after), len(data)-5)
	}

	// Mid-segment corruption: loud error.
	bad := append([]byte{}, data...)
	bad[FrameHeaderSize+1] ^= 0xFF
	writeFileT(t, last, bad)
	if _, err := DumpSegment(last, func(Record) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption dumped without error")
	}
}
