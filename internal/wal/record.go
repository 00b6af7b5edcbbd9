package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// Record kinds. Event records (table, document, triple) carry the lake
// version their mutation committed as; source records carry the lake
// version current when the source was registered (sources are not
// versioned mutations, the stamp only places them for segment truncation).
const (
	KindTable    = "table"
	KindDocument = "document"
	KindTriple   = "triple"
	KindSource   = "source"
)

// Record is one durable lake mutation. Exactly one of Table, Doc, Triple,
// or Source is populated according to Kind. The payload carries a 1-byte
// format tag (codec.go): legacy JSON — debuggable with standard tools —
// or the compact binary encoding, the default. `verifai waldump` streams
// either encoding back out as JSON lines, so `jq`-debuggability survives
// the binary default.
type Record struct {
	Version uint64           `json:"v"`
	Kind    string           `json:"kind"`
	Table   *table.Table     `json:"table,omitempty"`
	Doc     *doc.Document    `json:"doc,omitempty"`
	Triple  *kg.Triple       `json:"triple,omitempty"`
	Source  *datalake.Source `json:"source,omitempty"`
	// TS is the leader's wall-clock append time in Unix nanoseconds,
	// stamped when the record enters the log. Optional (0 in records
	// written before the field existed); followers use it to report apply
	// lag in seconds alongside lag in versions. Clock skew between leader
	// and follower shifts the measurement — it is an operational lag
	// signal, not an ordering primitive (Version is).
	TS int64 `json:"ts,omitempty"`
}

// FromEvent converts a committed lake event into its WAL record.
func FromEvent(ev datalake.Event) (Record, error) {
	switch ev.Kind {
	case datalake.KindTable:
		return Record{Version: ev.Version, Kind: KindTable, Table: ev.Table}, nil
	case datalake.KindText:
		return Record{Version: ev.Version, Kind: KindDocument, Doc: ev.Doc}, nil
	case datalake.KindEntity:
		return Record{Version: ev.Version, Kind: KindTriple, Triple: ev.Triple}, nil
	default:
		return Record{}, fmt.Errorf("wal: unloggable event kind %v", ev.Kind)
	}
}

// FrameHeaderSize is the fixed frame prefix. A frame is a 4-byte
// little-endian payload length, a 4-byte little-endian CRC-32C
// (Castagnoli) of the payload, then the payload (self-describing: first
// byte 0x7B = legacy JSON, 0x01 = compact binary; see codec.go). The CRC
// covers the whole payload including the tag and detects bit rot and
// mid-log corruption; a torn (partially written) final frame is detected
// by the length outrunning the remaining bytes — both classifications are
// frame-level and therefore identical for either payload encoding. The
// CDC change feed frames its wire protocol with the same codec.
const FrameHeaderSize = 8

// MaxRecordSize bounds one record's payload. A frame header is written
// atomically ahead of its payload, so a length beyond this bound can only
// come from corruption, never from a torn append — decoders (the log's
// and the change stream's) fail loudly on it instead of attempting a
// giant allocation.
const MaxRecordSize = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrameFormat appends rec to buf in the log's frame format (length +
// CRC + self-describing payload) with payload format f. It is the single
// encode path shared by the log itself and the CDC change stream, so every
// consumer speaks exactly the on-disk format; the change feed keeps its
// wire encoding aligned with the leader's -wal-format.
func EncodeFrameFormat(buf *bytes.Buffer, rec Record, f Format) error {
	var payload []byte
	if f == FormatJSON {
		var err error
		payload, err = json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("wal: encode record: %w", err)
		}
	} else {
		payload = encodeRecordBinary(nil, rec)
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record payload %d bytes exceeds %d", len(payload), MaxRecordSize)
	}
	var header [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	buf.Write(header[:])
	buf.Write(payload)
	return nil
}

// DecodeFrame decodes the frame starting at data[off]. It returns the
// record and the offset just past the frame. torn reports that the frame
// is incomplete (more bytes needed, e.g. the tail of a partial append);
// err reports corruption (bad length, CRC mismatch, undecodable payload).
func DecodeFrame(data []byte, off int) (rec Record, next int, torn bool, err error) {
	if len(data)-off < FrameHeaderSize {
		return Record{}, off, true, nil
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > MaxRecordSize {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d declares %d payload bytes (corrupt length)", off, n)
	}
	if len(data)-off-FrameHeaderSize < n {
		return Record{}, off, true, nil
	}
	payload := data[off+FrameHeaderSize : off+FrameHeaderSize+n]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d fails CRC (stored %08x, computed %08x)", off, sum, got)
	}
	if n == 0 {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d has empty payload", off)
	}
	switch payload[0] {
	case binTag:
		var err error
		if rec, err = decodeRecordBinary(payload); err != nil {
			return Record{}, off, false, fmt.Errorf("wal: frame at offset %d has undecodable binary payload: %w", off, err)
		}
	case jsonTag:
		if err := json.Unmarshal(payload, &rec); err != nil {
			return Record{}, off, false, fmt.Errorf("wal: frame at offset %d has undecodable payload: %w", off, err)
		}
	default:
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d has unknown payload format tag 0x%02x", off, payload[0])
	}
	return rec, off + FrameHeaderSize + n, false, nil
}
