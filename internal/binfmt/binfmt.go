// Package binfmt is the binary columnar container behind VerifAI's index
// snapshots: a length-prefixed, CRC'd, versioned collection of named
// sections, designed so a reader can map the file and hand out typed views
// of each column without decoding anything into heap objects.
//
// Layout:
//
//	[0:4]   magic "VAIB"
//	[4:8]   format version (uint32, little-endian)
//	[8:12]  byte-order probe 0x01020304 written in *native* order
//	[12:16] section count (uint32, little-endian)
//	[16:20] TOC length in bytes (uint32, little-endian)
//	[20:24] CRC-32C of the TOC bytes (uint32, little-endian)
//	[24:…]  TOC: per section, u16 name length, name bytes,
//	        u64 payload offset, u64 payload length, u32 payload CRC-32C
//	[…]     payloads, each starting at an 8-byte-aligned file offset
//
// The header and TOC are little-endian so any reader can parse them;
// section payloads are written in native byte order (they are produced and
// consumed by unsafe slice casts on the same machine) and the probe field
// rejects a snapshot moved across machines of different endianness.
//
// NewReader verifies the TOC and every section CRC up front, so a
// corrupted file fails loudly at open rather than serving garbage later;
// with an mmap'd file this is one streaming pass that warms the page cache
// without building any heap representation of the contents.
package binfmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Magic identifies a binfmt container; a snapshot file not starting with
// it predates the format and is rebuilt, not read.
const Magic = "VAIB"

// Version is the container format version written by this package.
const Version = 1

// orderProbe is written in native byte order; a reader whose native order
// decodes a different value is on a machine of opposite endianness.
const orderProbe uint32 = 0x01020304

const headerLen = 24

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func align8(n int) int { return (n + 7) &^ 7 }

// Writer accumulates named sections and serializes them as one container.
// Section payloads are referenced, not copied: callers must not mutate a
// payload between adding it and WriteTo.
type Writer struct {
	names    []string
	payloads [][]byte
	id       ID // of the container the last WriteTo produced
}

// ID identifies a container's contents: its length and the CRC of its TOC,
// which carries every section's offset, length and CRC. A container
// NewReader verified, with the ID a writer reported, holds what it wrote.
type ID struct {
	Size int64
	TOC  uint32
}

// ID returns the identity of the container the last WriteTo produced.
func (w *Writer) ID() ID { return w.id }

// Build serializes the container into memory (one exactly sized buffer)
// and opens it: the bytes WriteTo would put in a file, verified like one.
func (w *Writer) Build() (*Reader, error) {
	size := headerLen + 8
	for i, p := range w.payloads {
		size += 22 + len(w.names[i]) + align8(len(p))
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := w.WriteTo(buf); err != nil {
		return nil, err
	}
	return NewReader(buf.Bytes())
}

// NewWriter returns an empty container writer.
func NewWriter() *Writer { return &Writer{} }

// Section adds a raw byte payload under name. Names must be unique and
// non-empty; violations surface as errors from WriteTo.
func (w *Writer) Section(name string, payload []byte) {
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, payload)
}

// Int8s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Int8s(name string, v []int8) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)))
}

// Int32s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Int32s(name string, v []int32) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4))
}

// Uint32s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Uint32s(name string, v []uint32) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4))
}

// Float32s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Float32s(name string, v []float32) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4))
}

// JSON marshals v and adds it as a section — meant for small metadata
// records, not bulk columns.
func (w *Writer) JSON(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("binfmt: marshal section %q: %w", name, err)
	}
	w.Section(name, b)
	return nil
}

// Strings adds a string column as a single section: u32 count, then
// count+1 u32 end-offsets into the blob that follows. Like all payloads,
// the integers are native byte order.
func (w *Writer) Strings(name string, vals []string) {
	var blobLen int
	for _, s := range vals {
		blobLen += len(s)
	}
	buf := make([]byte, 4+4*(len(vals)+1)+blobLen)
	ne := binary.NativeEndian
	ne.PutUint32(buf, uint32(len(vals)))
	ne.PutUint32(buf[4:], 0)
	off := uint32(0)
	pos := 4 + 4*(len(vals)+1)
	for i, s := range vals {
		off += uint32(len(s))
		ne.PutUint32(buf[4+4*(i+1):], off)
		copy(buf[pos:], s)
		pos += len(s)
	}
	w.Section(name, buf)
}

// PackedStrings adds a string column in its compact sequential form:
// uvarint count, count uvarint lengths, then the concatenated bytes. It
// costs about one byte of framing per short string where Strings costs
// four, and has no random access: the reader materializes the whole column
// (Reader.PackedStrings). For bulk columns that are always read whole.
func (w *Writer) PackedStrings(name string, vals []string) {
	size := binary.MaxVarintLen64 * (1 + len(vals))
	for _, s := range vals {
		size += len(s)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, s := range vals {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
	}
	for _, s := range vals {
		buf = append(buf, s...)
	}
	w.Section(name, buf)
}

// WriteTo serializes the container to out.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	seen := make(map[string]struct{}, len(w.names))
	toc := make([]byte, 0, 64*len(w.names))
	var scratch [8]byte
	le := binary.LittleEndian
	off := uint64(0) // patched below once the TOC size is known
	offs := make([]uint64, len(w.names))
	for i, name := range w.names {
		if name == "" || len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("binfmt: invalid section name %q", name)
		}
		if _, dup := seen[name]; dup {
			return 0, fmt.Errorf("binfmt: duplicate section %q", name)
		}
		seen[name] = struct{}{}
		le.PutUint16(scratch[:2], uint16(len(name)))
		toc = append(toc, scratch[:2]...)
		toc = append(toc, name...)
		offs[i] = off // relative for now
		le.PutUint64(scratch[:8], 0)
		toc = append(toc, scratch[:8]...) // offset placeholder, patched below
		le.PutUint64(scratch[:8], uint64(len(w.payloads[i])))
		toc = append(toc, scratch[:8]...)
		le.PutUint32(scratch[:4], crc32.Checksum(w.payloads[i], castagnoli))
		toc = append(toc, scratch[:4]...)
	}
	// Assign aligned absolute offsets now that the TOC length is known,
	// and patch them into the TOC.
	pos := align8(headerLen + len(toc))
	patch := 0
	for i, name := range w.names {
		patch += 2 + len(name)
		le.PutUint64(toc[patch:], uint64(pos))
		offs[i] = uint64(pos)
		patch += 8 + 8 + 4
		pos = align8(pos + len(w.payloads[i]))
	}

	var hdr [headerLen]byte
	copy(hdr[0:4], Magic)
	le.PutUint32(hdr[4:8], Version)
	binary.NativeEndian.PutUint32(hdr[8:12], orderProbe)
	le.PutUint32(hdr[12:16], uint32(len(w.names)))
	le.PutUint32(hdr[16:20], uint32(len(toc)))
	tocCRC := crc32.Checksum(toc, castagnoli)
	le.PutUint32(hdr[20:24], tocCRC)

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(hdr[:]); err != nil {
		return written, fmt.Errorf("binfmt: write header: %w", err)
	}
	if err := emit(toc); err != nil {
		return written, fmt.Errorf("binfmt: write TOC: %w", err)
	}
	var pad [8]byte
	if p := align8(headerLen+len(toc)) - (headerLen + len(toc)); p > 0 {
		if err := emit(pad[:p]); err != nil {
			return written, fmt.Errorf("binfmt: write padding: %w", err)
		}
	}
	for i, payload := range w.payloads {
		if err := emit(payload); err != nil {
			return written, fmt.Errorf("binfmt: write section %q: %w", w.names[i], err)
		}
		// Pad to align the next section; the final section needs none, so
		// truncating the file always removes recorded content.
		if p := align8(len(payload)) - len(payload); p > 0 && i < len(w.payloads)-1 {
			if err := emit(pad[:p]); err != nil {
				return written, fmt.Errorf("binfmt: write padding: %w", err)
			}
		}
	}
	w.id = ID{Size: written, TOC: tocCRC}
	return written, nil
}

// Reader is an opened container. The section views it hands out alias the
// underlying mapping (or the file's in-memory copy on the fallback path);
// any structure that retains a view must also retain the Reader, which
// keeps the mapping alive — the mapping is released by a finalizer once
// the Reader is unreachable.
type Reader struct {
	data   []byte
	secs   map[string]section
	mapped bool
}

type section struct {
	off, n uint64
}

// NewReader parses and fully verifies a container held in memory: header,
// TOC CRC, section bounds, and every section's CRC-32C. data is retained
// and aliased by the returned views.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("binfmt: file too short (%d bytes)", len(data))
	}
	// Typed views are produced by pointer casts, so the backing array must
	// be 8-byte aligned (mmap pages and alignedBuf always are; arbitrary
	// caller slices may not be — copy those once).
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0 {
		buf := alignedBuf(len(data))
		copy(buf, data)
		data = buf
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("binfmt: bad magic %q", data[0:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("binfmt: unsupported format version %d (want %d)", v, Version)
	}
	if p := binary.NativeEndian.Uint32(data[8:12]); p != orderProbe {
		return nil, fmt.Errorf("binfmt: snapshot byte order does not match this machine")
	}
	nsec := int(le.Uint32(data[12:16]))
	tocLen := int(le.Uint32(data[16:20]))
	if tocLen < 0 || headerLen+tocLen > len(data) {
		return nil, fmt.Errorf("binfmt: truncated TOC (%d bytes declared, %d in file)", tocLen, len(data)-headerLen)
	}
	toc := data[headerLen : headerLen+tocLen]
	if got, want := crc32.Checksum(toc, castagnoli), le.Uint32(data[20:24]); got != want {
		return nil, fmt.Errorf("binfmt: TOC checksum mismatch (got %08x, want %08x)", got, want)
	}
	// Each TOC entry is at least 22 bytes (u16 name length + u64 offset +
	// u64 length + u32 CRC); bound the declared count by that before
	// sizing anything, so a corrupted count can't drive a huge allocation.
	if nsec > tocLen/22 {
		return nil, fmt.Errorf("binfmt: TOC too small for %d sections (%d bytes)", nsec, tocLen)
	}
	r := &Reader{data: data, secs: make(map[string]section, nsec)}
	pos := 0
	for i := 0; i < nsec; i++ {
		if pos+2 > len(toc) {
			return nil, fmt.Errorf("binfmt: TOC truncated at section %d", i)
		}
		nameLen := int(le.Uint16(toc[pos:]))
		pos += 2
		if pos+nameLen+20 > len(toc) {
			return nil, fmt.Errorf("binfmt: TOC truncated at section %d", i)
		}
		name := string(toc[pos : pos+nameLen])
		pos += nameLen
		off := le.Uint64(toc[pos:])
		n := le.Uint64(toc[pos+8:])
		crc := le.Uint32(toc[pos+16:])
		pos += 20
		if off%8 != 0 {
			return nil, fmt.Errorf("binfmt: section %q is misaligned (offset %d)", name, off)
		}
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, fmt.Errorf("binfmt: section %q out of bounds (offset %d, length %d, file %d)", name, off, n, len(data))
		}
		if _, dup := r.secs[name]; dup {
			return nil, fmt.Errorf("binfmt: duplicate section %q", name)
		}
		if got := crc32.Checksum(data[off:off+n], castagnoli); got != crc {
			return nil, fmt.Errorf("binfmt: section %q checksum mismatch (got %08x, want %08x)", name, got, crc)
		}
		r.secs[name] = section{off: off, n: n}
	}
	return r, nil
}

// ID returns the container's identity (see ID).
func (r *Reader) ID() ID {
	return ID{Size: int64(len(r.data)), TOC: binary.LittleEndian.Uint32(r.data[20:24])}
}

// WriteTo writes the container's bytes verbatim.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.data)
	return int64(n), err
}

// Mapped reports whether the reader is backed by an mmap'd file (as
// opposed to an in-memory copy).
func (r *Reader) Mapped() bool { return r.mapped }

// Bytes returns the raw payload of a section.
func (r *Reader) Bytes(name string) ([]byte, error) {
	s, ok := r.secs[name]
	if !ok {
		return nil, fmt.Errorf("binfmt: missing section %q", name)
	}
	return r.data[s.off : s.off+s.n : s.off+s.n], nil
}

// JSON unmarshals a section written by Writer.JSON into v.
func (r *Reader) JSON(name string, v any) error {
	b, err := r.Bytes(name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("binfmt: unmarshal section %q: %w", name, err)
	}
	return nil
}

// Int8s returns a typed view of a section.
func (r *Reader) Int8s(name string) ([]int8, error) {
	b, err := r.Bytes(name)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b)), nil
}

// Int32s returns a typed view of a section.
func (r *Reader) Int32s(name string) ([]int32, error) {
	b, err := r.sized(name, 4)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// Uint32s returns a typed view of a section.
func (r *Reader) Uint32s(name string) ([]uint32, error) {
	b, err := r.sized(name, 4)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// Float32s returns a typed view of a section.
func (r *Reader) Float32s(name string) ([]float32, error) {
	b, err := r.sized(name, 4)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

func (r *Reader) sized(name string, elem int) ([]byte, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return nil, err
	}
	if len(b)%elem != 0 {
		return nil, fmt.Errorf("binfmt: section %q length %d is not a multiple of %d", name, len(b), elem)
	}
	return b, nil
}

// StringCol is a zero-copy view of a string column: At materializes a
// string (allocates), Bytes returns the raw slice without copying.
type StringCol struct {
	offs []uint32 // len+1 end-offsets, offs[0] == 0
	blob []byte
}

// Strings returns a validated view of a string column section.
func (r *Reader) Strings(name string) (StringCol, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return StringCol{}, err
	}
	if len(b) < 8 {
		return StringCol{}, fmt.Errorf("binfmt: string column %q too short", name)
	}
	count := int(binary.NativeEndian.Uint32(b))
	if count < 0 || 4+4*(count+1) > len(b) {
		return StringCol{}, fmt.Errorf("binfmt: string column %q truncated (count %d, %d bytes)", name, count, len(b))
	}
	offBytes := b[4 : 4+4*(count+1)]
	offs := unsafe.Slice((*uint32)(unsafe.Pointer(&offBytes[0])), count+1)
	blob := b[4+4*(count+1):]
	// The offsets section is little-endian by construction; on the (only
	// supported) little-endian targets the cast view reads them directly.
	if offs[0] != 0 {
		return StringCol{}, fmt.Errorf("binfmt: string column %q has non-zero base offset", name)
	}
	for i := 0; i < count; i++ {
		if offs[i+1] < offs[i] {
			return StringCol{}, fmt.Errorf("binfmt: string column %q offsets not monotonic at %d", name, i)
		}
	}
	if int(offs[count]) != len(blob) {
		return StringCol{}, fmt.Errorf("binfmt: string column %q blob length mismatch (%d offsets vs %d bytes)", name, offs[count], len(blob))
	}
	return StringCol{offs: offs, blob: blob}, nil
}

// PackedStrings materializes a column written by Writer.PackedStrings.
// The strings share one copy of the column's bytes, so they cost no
// allocation each but stay alive together. A count or a length the section
// cannot hold is an error before anything is sized by it.
func (r *Reader) PackedStrings(name string) ([]string, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("binfmt: packed string column %q has no count", name)
	}
	lens := b[n:]
	// Every string spends at least one length byte.
	if count > uint64(len(lens)) {
		return nil, fmt.Errorf("binfmt: packed string column %q truncated (count %d, %d bytes)", name, count, len(lens))
	}
	// First pass: find where the lengths end and check they add up to
	// exactly the bytes that follow.
	pos, total := 0, uint64(0)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(lens[pos:])
		if n <= 0 || l > uint64(len(lens)) {
			return nil, fmt.Errorf("binfmt: packed string column %q has a bad length at %d", name, i)
		}
		pos += n
		total += l
	}
	if total != uint64(len(lens)-pos) {
		return nil, fmt.Errorf("binfmt: packed string column %q blob length mismatch (%d declared vs %d bytes)", name, total, len(lens)-pos)
	}
	if count == 0 {
		return nil, nil
	}
	blob := string(lens[pos:])
	out := make([]string, count)
	pos = 0
	for i := range out {
		l, n := binary.Uvarint(lens[pos:])
		pos += n
		out[i], blob = blob[:l], blob[l:]
	}
	return out, nil
}

// Len returns the number of strings in the column.
func (c StringCol) Len() int {
	if c.offs == nil {
		return 0
	}
	return len(c.offs) - 1
}

// At materializes string i (allocates a copy).
func (c StringCol) At(i int) string { return string(c.Bytes(i)) }

// Bytes returns string i as a zero-copy view into the column blob.
func (c StringCol) Bytes(i int) []byte {
	return c.blob[c.offs[i]:c.offs[i+1]:c.offs[i+1]]
}

// castToBytes views n bytes at p as a byte slice (nil-safe for n == 0).
func castToBytes(p unsafe.Pointer, n int) []byte {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(p), n)
}
