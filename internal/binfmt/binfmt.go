// Package binfmt is the binary columnar container behind VerifAI's index
// snapshots and sealed segments: a length-prefixed, CRC'd, versioned
// collection of named sections, designed so a reader holding the bytes
// (off the Go heap, see OffHeap) hands out typed views of each column
// without decoding anything into heap objects. On disk a container is
// stored deflated (Reader.WriteFile, OpenFile).
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
// corrupted file fails loudly at open rather than serving garbage later.
package binfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	deflated []deflatedColumn
}

// OffHeap returns size zeroed, writable bytes that live as long as owner.
// Where the platform maps memory they are an anonymous private mapping,
// so they neither count toward the collector's heap goal nor are
// scanned by it, and a page costs memory only once written; the mapping is
// released by a cleanup once owner is unreachable, so owner must stay
// reachable for as long as the bytes are used (runtime.KeepAlive where
// nothing else holds it). Elsewhere, with NoMmapEnv set, or when the
// mapping fails, they are a heap buffer. mapped reports which.
func OffHeap[T any](owner *T, size int) (buf []byte, mapped bool) {
	if mmapSupported && size > 0 && os.Getenv(NoMmapEnv) == "" {
		if m, err := mmapAnon(size); err == nil {
			runtime.AddCleanup(owner, munmap, m)
			return m, true
		}
	}
	return make([]byte, size), false
}

// builtBytes is what the containers Build made and OpenFile inflated hold
// in anonymous mappings, until their Readers are released.
var builtBytes atomic.Int64

// BuiltBytes returns the bytes of the containers Build made and OpenFile
// inflated that sit outside the Go heap (see OffHeap) and are not yet
// released.
func BuiltBytes() int64 { return builtBytes.Load() }

// Build serializes the container into memory (one buffer of exactly the
// bytes WriteTo would write, so BuiltBytes counts what the Readers'
// Size reports) and opens it, verified like a file.
// The buffer comes from OffHeap, owned by the Reader, and a mapped one is
// read-only once written: a sealed segment searched for as long as it
// lives stays off the Go heap.
func (w *Writer) Build() (*Reader, error) {
	w.deflateColumns()
	toc := 0
	for _, name := range w.names {
		toc += 22 + len(name)
	}
	size := align8(headerLen + toc)
	for i, p := range w.payloads {
		if i < len(w.payloads)-1 {
			size += align8(len(p))
		} else {
			size += len(p) // WriteTo pads no final section
		}
	}
	return openOffHeap(size, func(mem []byte) (int, error) {
		n, err := w.WriteTo(bytes.NewBuffer(mem[:0]))
		return int(n), err
	})
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

// Uint32s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Uint32s(name string, v []uint32) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4))
}

// Float32s adds v's bytes as a section (native byte order, zero copy).
func (w *Writer) Float32s(name string, v []float32) {
	w.Section(name, castToBytes(unsafe.Pointer(unsafe.SliceData(v)), len(v)*4))
}

// Uints adds v as a column of the narrowest width of 1, 2 or 4 bytes
// that holds its largest value (native byte order; zero copy at 4 bytes).
// The reader, told the count, takes the width from the section's length
// (Reader.Uints).
func (w *Writer) Uints(name string, v []uint32) {
	m := uint32(0)
	for _, x := range v {
		m = max(m, x)
	}
	switch {
	case m <= math.MaxUint8:
		b := make([]byte, len(v))
		for i, x := range v {
			b[i] = uint8(x)
		}
		w.Section(name, b)
	case m <= math.MaxUint16:
		b := make([]byte, 0, 2*len(v))
		for _, x := range v {
			b = binary.NativeEndian.AppendUint16(b, uint16(x))
		}
		w.Section(name, b)
	default:
		w.Uint32s(name, v)
	}
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
	w.StringSeq(name, slices.Values(vals))
}

// StringSeq is Strings over a sequence, which it reads twice: once to
// size the section and once to fill it. The column's bytes must total
// under 4 GiB, the reach of its offsets.
func (w *Writer) StringSeq(name string, vals iter.Seq[string]) {
	count, blobLen := 0, 0
	for s := range vals {
		count++
		blobLen += len(s)
	}
	buf := make([]byte, 4+4*(count+1)+blobLen)
	ne := binary.NativeEndian
	ne.PutUint32(buf, uint32(count))
	ne.PutUint32(buf[4:], 0)
	i, off := 0, uint32(0)
	pos := 4 + 4*(count+1)
	for s := range vals {
		i++
		off += uint32(len(s))
		ne.PutUint32(buf[4+4*i:], off)
		copy(buf[pos:], s)
		pos += len(s)
	}
	w.Section(name, buf)
}

// DeflatedStrings adds a string column compressed for storage: the
// column's packed form — uvarint count, count uvarint lengths, then the
// concatenated bytes — as one DEFLATE run at flate.BestSpeed, prefixed by
// the packed form's uvarint length. It has no random access: the reader
// inflates and materializes the whole column (Reader.DeflatedStrings). For
// bulk columns that are always read whole. The column is compressed when
// the container is serialized, so vals, like any payload, must not change
// before then.
func (w *Writer) DeflatedStrings(name string, vals []string) {
	w.DeflatedStringSeq(name, slices.Values(vals))
}

// DeflatedStringSeq is DeflatedStrings over a sequence, which is read
// twice when the container is serialized: once for the lengths and once
// for the bytes. The strings need to stay valid only until then.
func (w *Writer) DeflatedStringSeq(name string, vals iter.Seq[string]) {
	w.deflated = append(w.deflated, deflatedColumn{section: len(w.payloads), vals: vals})
	w.Section(name, nil)
}

// deflatedColumn is a section DeflatedStrings added and WriteTo has not
// yet compressed.
type deflatedColumn struct {
	section int
	vals    iter.Seq[string]
}

// deflateColumns compresses the columns DeflatedStrings added into their
// sections, on at most GOMAXPROCS goroutines that each reuse one
// compressor from column to column: a compressor costs about a megabyte.
// It is not par.For: a compressor per worker, shared through a sync.Pool
// instead, would outlive the collection a checkpoint ends with. On two
// shared cores the second worker buys ≈ 10-20 ms of the default lake's
// seed checkpoint: `verifai serve -data-dir` logged checkpoint_s 0.038 s
// against 0.055 s with the columns deflated in turn (medians of 16).
func (w *Writer) deflateColumns() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(w.deflated)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fw *flate.Writer
			for i := next.Add(1) - 1; i < int64(len(w.deflated)); i = next.Add(1) - 1 {
				col := w.deflated[i]
				w.payloads[col.section], fw = deflateStrings(col.vals, fw)
			}
		}()
	}
	wg.Wait()
	w.deflated = nil
}

// deflateStrings compresses vals into a DeflatedStrings payload with fw (a
// new compressor when nil) and returns fw for the next column. The packed
// form is streamed into the compressor, never assembled. DEFLATE's output
// depends on the bytes it is given, not on how they are split into
// writes, so the count and the lengths go in apart.
func deflateStrings(vals iter.Seq[string], fw *flate.Writer) ([]byte, *flate.Writer) {
	var lens []byte
	count, size := 0, 0
	for s := range vals {
		lens = binary.AppendUvarint(lens, uint64(len(s)))
		count++
		size += len(s)
	}
	head := binary.AppendUvarint(nil, uint64(count))
	size += len(head) + len(lens)
	out := bytes.NewBuffer(binary.AppendUvarint(make([]byte, 0, size/4+binary.MaxVarintLen64), uint64(size)))
	if fw == nil {
		fw, _ = flate.NewWriter(out, flate.BestSpeed) // fails only for an invalid level
	} else {
		fw.Reset(out)
	}
	// Writes into a bytes.Buffer do not fail.
	_, _ = fw.Write(head)
	_, _ = fw.Write(lens)
	for s := range vals {
		_, _ = fw.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	_ = fw.Close()
	return out.Bytes(), fw
}

// WriteTo serializes the container to out.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	w.deflateColumns()
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
	return written, nil
}

// Reader is an opened container. The section views it hands out alias its
// bytes; any structure that retains a view must also retain the Reader,
// which keeps the bytes alive — an OffHeap buffer is released by a cleanup
// once the Reader is unreachable.
type Reader struct {
	data    []byte
	secs    map[string]section
	offHeap int64 // the size of its anonymous mapping, if it has one
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
	// be 8-byte aligned (mapped pages and alignedBuf always are; arbitrary
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

// Size returns the container's length in bytes.
func (r *Reader) Size() int64 { return int64(len(r.data)) }

// WriteTo writes the container's bytes verbatim.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.data)
	return int64(n), err
}

// OffHeapBytes returns the size of the anonymous mapping a container Build
// made or OpenFile inflated holds, a part of BuiltBytes; 0 for every other
// reader.
func (r *Reader) OffHeapBytes() int64 { return r.offHeap }

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

// UintCol is a typed view of a column Writer.Uints wrote, at the width it
// was written: one of its slices is the column, the others are nil (all
// of them for an empty column). A loop over many values can switch on the
// width once and read the slice; At reads one value.
type UintCol struct {
	U8  []uint8
	U16 []uint16
	U32 []uint32
}

// Uints returns a view of a column of n values written by Writer.Uints:
// the section must hold n values of 1, 2 or 4 bytes.
func (r *Reader) Uints(name string, n int) (UintCol, error) {
	b, err := r.Bytes(name)
	if err != nil || len(b) == 0 && n == 0 {
		return UintCol{}, err
	}
	switch {
	case len(b) == n:
		return UintCol{U8: b}, nil
	case len(b) == 2*n:
		return UintCol{U16: unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)}, nil
	case len(b) == 4*n:
		return UintCol{U32: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)}, nil
	}
	return UintCol{}, fmt.Errorf("binfmt: section %q of %d bytes holds no 1-, 2- or 4-byte column of %d values", name, len(b), n)
}

// At returns value i.
func (c UintCol) At(i int) uint32 {
	switch {
	case c.U8 != nil:
		return uint32(c.U8[i])
	case c.U16 != nil:
		return uint32(c.U16[i])
	}
	return c.U32[i]
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

// StringCol is a zero-copy view of a string column: Bytes returns a string
// as a slice of the column.
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

// PackedStrings materializes a column stored in the packed form itself,
// uncompressed — the form containers written before DeflatedStrings hold.
// The strings share one copy of the column's bytes, so they cost no
// allocation each but stay alive together.
func (r *Reader) PackedStrings(name string) ([]string, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return nil, err
	}
	return unpackStrings(name, bytes.Clone(b))
}

// maxInflateRatio is the most DEFLATE can expand its input: a 258-byte
// match per two bits.
const maxInflateRatio = 1032

// DeflatedStrings materializes a column written by Writer.DeflatedStrings.
// The column inflates into one buffer of exactly its declared length, which
// the strings share. A declared length the stream could not produce is an
// error before anything is sized by it, and a stream that ends short of the
// length, runs past it or leaves bytes behind is an error too.
func (r *Reader) DeflatedStrings(name string) ([]string, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return nil, err
	}
	size, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("binfmt: deflated string column %q has no length", name)
	}
	src := bytes.NewReader(b[n:])
	if size > maxInflateRatio*uint64(src.Len()) {
		return nil, fmt.Errorf("binfmt: deflated string column %q declares %d bytes, its %d-byte stream cannot hold them", name, size, src.Len())
	}
	packed := make([]byte, size)
	if err := inflateExactly(packed, src); err != nil {
		return nil, fmt.Errorf("binfmt: deflated string column %q: %w", name, err)
	}
	return unpackStrings(name, packed)
}

// unpackStrings parses a column in the packed form. The strings alias b,
// which the caller hands over: nothing may write it afterwards. A count or
// a length b cannot hold is an error before anything is sized by it.
func unpackStrings(name string, b []byte) ([]string, error) {
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
	out := make([]string, count)
	if rest := lens[pos:]; len(rest) > 0 { // else every string is empty
		blob := unsafe.String(&rest[0], len(rest))
		pos = 0
		for i := range out {
			l, n := binary.Uvarint(lens[pos:])
			pos += n
			out[i], blob = blob[:l], blob[l:]
		}
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

// Bytes returns string i as a zero-copy view into the column blob.
func (c StringCol) Bytes(i int) []byte {
	return c.blob[c.offs[i]:c.offs[i+1]:c.offs[i+1]]
}

// Span returns strings i to j-1 as one zero-copy view of their bytes, which
// the column stores back to back.
func (c StringCol) Span(i, j int) []byte {
	return c.blob[c.offs[i]:c.offs[j]:c.offs[j]]
}

// Offsets returns the j-i+1 offsets into the column's bytes that bound
// strings i to j-1: string k spans [offs[k-i], offs[k-i+1]).
func (c StringCol) Offsets(i, j int) []uint32 { return c.offs[i : j+1 : j+1] }

// castToBytes views n bytes at p as a byte slice (nil-safe for n == 0).
func castToBytes(p unsafe.Pointer, n int) []byte {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(p), n)
}
