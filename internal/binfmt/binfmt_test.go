package binfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// testStrings is a string column with the shapes a codec gets wrong.
var testStrings = []string{"alpha", "", "βγ", "\xff\x00", strings.Repeat("long", 64)}

// testIDs is a front-coded column of two blocks and a bit: an empty first
// string, runs that share long prefixes, one that shares nothing, and
// strings longer than Find's stack buffer.
var testIDs = func() []string {
	ids := []string{"", "table:tbl-000001", "tuple:tbl-000000#0", "tuple:tbl-000000#1", "tuple:tbl-000000#10", "tuple:tbl-000000#2"}
	for i := 0; i < 20; i++ {
		ids = append(ids, fmt.Sprintf("tuple:tbl-000001#%02d", i))
	}
	long := strings.Repeat("x", 100)
	return append(ids, long+"a", long+"b", long+"ba", "\xff")
}()

// frontCodedStrings decodes every string of c through All, checking each
// against AppendAt.
func frontCodedStrings(c FrontCodedCol) []string {
	var out []string
	for i, b := range c.All() {
		if at := c.AppendAt(nil, i); !bytes.Equal(at, b) || i != len(out) {
			panic(fmt.Sprintf("string %d: All yields %q, AppendAt %q", i, b, at))
		}
		out = append(out, string(b))
	}
	return out
}

// frontCodedPayload is a front-coded section payload: count, the block
// offsets, then the blob.
func frontCodedPayload(count uint32, offs []uint32, blob ...byte) []byte {
	b := binary.NativeEndian.AppendUint32(nil, count)
	for _, off := range offs {
		b = binary.NativeEndian.AppendUint32(b, off)
	}
	return append(b, blob...)
}

// badFrontCodedColumns are front-coded payloads a reader must refuse.
func badFrontCodedColumns() map[string][]byte {
	// 17 strings, so two blocks: "k00" ... "k16", each entry four bytes,
	// the second block at 64.
	var blob []byte
	for i := 0; i < 17; i++ {
		if i%16 == 0 {
			blob = append(blob, 3, 'k', byte('0'+i/10), byte('0'+i%10))
		} else {
			blob = append(blob, 1, 2, byte('0'+i/10), byte('0'+i%10))
		}
	}
	two := func(offs ...uint32) []byte { return frontCodedPayload(17, offs, blob...) }
	return map[string][]byte{
		"empty section":                     {},
		"count of 2^32-1":                   frontCodedPayload(math.MaxUint32, []uint32{0}, 1, 'a'),
		"count past the strings":            frontCodedPayload(3, []uint32{0}, 1, 'a', 0, 1, 'b'),
		"count short of the strings":        frontCodedPayload(1, []uint32{0}, 1, 'a', 0, 1, 'b'),
		"shared prefix past the one before": frontCodedPayload(2, []uint32{0}, 1, 'a', 2, 1, 'b'),
		"truncated length uvarint":          frontCodedPayload(1, []uint32{0}, 0x80),
		"truncated suffix uvarint":          frontCodedPayload(2, []uint32{0}, 1, 'a', 0, 0x81),
		"overlong uvarint":                  frontCodedPayload(1, []uint32{0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"suffix past the blob":              frontCodedPayload(2, []uint32{0}, 1, 'a', 0, 5, 'b'),
		"first block offset not 0":          frontCodedPayload(1, []uint32{1}, 1, 'a'),
		"block offset before its block":     two(0, 63),
		"block offset after its block":      two(0, 65),
		"block offset past the blob":        two(0, 9999),
		"equal strings":                     frontCodedPayload(2, []uint32{0}, 1, 'a', 1, 0),
		"descending strings":                frontCodedPayload(2, []uint32{0}, 1, 'b', 0, 1, 'a'),
		"a prefix after its extension":      frontCodedPayload(2, []uint32{0}, 2, 'a', 'b', 1, 0),
		"block head below the one before":   frontCodedPayload(17, []uint32{0, 64}, append(append([]byte(nil), blob[:64]...), 3, 'k', '0', '0')...),
	}
}

// packStrings is vals in the packed form: uvarint count, count uvarint
// lengths, then the bytes.
func packStrings(vals []string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(vals)))
	for _, s := range vals {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	for _, s := range vals {
		b = append(b, s...)
	}
	return b
}

// buildTestContainer writes one section of every supported column type.
func buildTestContainer(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := testWriter(t).WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// testWriter holds the sections of buildTestContainer.
func testWriter(t testing.TB) *Writer {
	t.Helper()
	w := NewWriter()
	if err := w.JSON("meta", map[string]any{"kind": "test", "n": 3}); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	w.Uint32s("u32", []uint32{1, 2, 3, 4, 5})
	w.Float32s("f32", []float32{0.5, -2.25, 1e20})
	w.Int8s("i8", []int8{-128, 0, 127, 7})
	w.Strings("strs", []string{"alpha", "", "βγ", "zz"})
	var ids FrontCoder
	for _, id := range testIDs {
		ids.Add(id)
	}
	w.FrontCoded("ids", &ids)
	w.Section("packed", packStrings(testStrings))
	w.DeflatedStrings("deflated", testStrings)
	w.DeflatedStrings("deflated-none", nil)
	w.Section("raw", []byte("payload"))
	return w
}

func checkTestContainer(t *testing.T, r *Reader) {
	t.Helper()
	var meta struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	if err := r.JSON("meta", &meta); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if meta.Kind != "test" || meta.N != 3 {
		t.Fatalf("meta = %+v", meta)
	}
	u32, err := r.Uint32s("u32")
	if err != nil || !reflect.DeepEqual(u32, []uint32{1, 2, 3, 4, 5}) {
		t.Fatalf("Uint32s = %v, %v", u32, err)
	}
	f32, err := r.Float32s("f32")
	if err != nil || !reflect.DeepEqual(f32, []float32{0.5, -2.25, 1e20}) {
		t.Fatalf("Float32s = %v, %v", f32, err)
	}
	i8, err := r.Int8s("i8")
	if err != nil || !reflect.DeepEqual(i8, []int8{-128, 0, 127, 7}) {
		t.Fatalf("Int8s = %v, %v", i8, err)
	}
	strs, err := r.Strings("strs")
	if err != nil {
		t.Fatalf("Strings: %v", err)
	}
	want := []string{"alpha", "", "βγ", "zz"}
	if strs.Len() != len(want) {
		t.Fatalf("Strings.Len = %d, want %d", strs.Len(), len(want))
	}
	for i, s := range want {
		if string(strs.Bytes(i)) != s {
			t.Fatalf("strs.Bytes(%d) = %q, want %q", i, strs.Bytes(i), s)
		}
	}
	ids, err := r.FrontCoded("ids")
	if err != nil {
		t.Fatalf("FrontCoded: %v", err)
	}
	if got := frontCodedStrings(ids); !reflect.DeepEqual(got, testIDs) {
		t.Fatalf("FrontCoded = %q, want %q", got, testIDs)
	}
	packed, err := r.PackedStrings("packed")
	if err != nil || !reflect.DeepEqual(packed, testStrings) {
		t.Fatalf("PackedStrings = %q, %v", packed, err)
	}
	deflated, err := r.DeflatedStrings("deflated")
	if err != nil || !reflect.DeepEqual(deflated, testStrings) {
		t.Fatalf("DeflatedStrings = %q, %v", deflated, err)
	}
	if none, err := r.DeflatedStrings("deflated-none"); err != nil || len(none) != 0 {
		t.Fatalf("DeflatedStrings(empty column) = %q, %v", none, err)
	}
	raw, err := r.Bytes("raw")
	if err != nil || string(raw) != "payload" {
		t.Fatalf("Bytes(raw) = %q, %v", raw, err)
	}
	if _, err := r.Bytes("nope"); err == nil {
		t.Fatal("missing section did not error")
	}
}

func TestRoundTrip(t *testing.T) {
	data := buildTestContainer(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	checkTestContainer(t, r)
}

// TestOpenFileMmapAndFallback: a container written with WriteFile opens
// to the same bytes, inflated into an anonymous mapping counted in
// BuiltBytes where the platform maps memory, and into a heap buffer under
// NoMmapEnv.
func TestOpenFileMmapAndFallback(t *testing.T) {
	data := buildTestContainer(t)
	path := filepath.Join(t.TempDir(), "c.idx")
	writeContainerFile(t, path, data)
	if raw, err := os.ReadFile(path); err != nil || len(raw) >= len(data) {
		t.Fatalf("the file holds %d bytes (%v), the container %d", len(raw), err, len(data))
	}
	before := BuiltBytes()
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if !bytes.Equal(r.data, data) {
		t.Fatal("OpenFile holds other bytes than the container written")
	}
	if mmapSupported && os.Getenv(NoMmapEnv) == "" && (r.OffHeapBytes() != int64(len(data)) || BuiltBytes()-before != int64(len(data))) {
		t.Fatalf("an opened %d-byte container holds %d off-heap bytes, BuiltBytes grew %d", len(data), r.OffHeapBytes(), BuiltBytes()-before)
	}
	checkTestContainer(t, r)
	runtime.KeepAlive(r)

	t.Setenv(NoMmapEnv, "1")
	r2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile (no mmap): %v", err)
	}
	if r2.OffHeapBytes() != 0 {
		t.Fatal("reader mapped despite NoMmapEnv")
	}
	checkTestContainer(t, r2)
}

// writeContainerFile writes the container data to path with WriteFile.
func writeContainerFile(t testing.TB, path string, data []byte) {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteFile(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileOf is a container file whose header declares declared bytes and
// whose stream inflates to content, then holds tail.
func fileOf(t testing.TB, declared uint64, content, tail []byte) []byte {
	t.Helper()
	out := bytes.NewBufferString(FileMagic)
	out.Write(binary.LittleEndian.AppendUint64(nil, declared))
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return append(out.Bytes(), tail...)
}

// badContainerFiles are container files OpenFile must refuse.
func badContainerFiles(t testing.TB) map[string][]byte {
	data := buildTestContainer(t)
	n := uint64(len(data))
	good := fileOf(t, n, data, nil)
	return map[string][]byte{
		"empty file":                      {},
		"header truncated":                good[:fileHeaderLen-1],
		"bad magic":                       append([]byte("VAIB"), good[len(FileMagic):]...),
		"raw container":                   data,
		"declared length past the ratio":  fileOf(t, maxInflateRatio*uint64(len(good)-fileHeaderLen)+1, data, nil),
		"declared length of 2^62":         fileOf(t, 1<<62, data, nil),
		"stream ends short":               fileOf(t, n+1, data, nil),
		"stream runs past the length":     fileOf(t, n-1, data, nil),
		"stream truncated":                good[:len(good)-3],
		"bytes after the stream":          fileOf(t, n, data, []byte{0}),
		"not a deflate stream":            append(append([]byte(nil), good[:fileHeaderLen]...), 0xff, 0xff, 0xff, 0xff),
		"corrupt container inside":        fileOf(t, n, append(append([]byte(nil), data[:n/2]...), append([]byte{data[n/2] ^ 1}, data[n/2+1:]...)...), nil),
		"declared length of 0, no stream": good[:fileHeaderLen],
	}
}

// TestOpenFileRejectsBadFiles: every malformed container file is an error
// at open, never a panic or a partial container, and a declared length
// past what the stream could inflate to is refused before it is allocated.
func TestOpenFileRejectsBadFiles(t *testing.T) {
	data := buildTestContainer(t)
	if r, err := readFile(fileOf(t, uint64(len(data)), data, nil)); err != nil || !bytes.Equal(r.data, data) {
		t.Fatalf("a well-formed file: %v", err)
	}
	for name, file := range badContainerFiles(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := readFile(file)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: opened a %d-byte container", name, r.Size())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusing the file allocated %d bytes", name, alloc)
		}
	}
}

// FuzzOpenContainerFile feeds OpenFile's parser arbitrary file bytes: a
// file either opens to a container that writes back to a file opening to
// the same bytes, or is an error; never a panic.
func FuzzOpenContainerFile(f *testing.F) {
	data := buildTestContainer(f)
	f.Add(fileOf(f, uint64(len(data)), data, nil))
	bad := badContainerFiles(f)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		f.Add(bad[name])
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		r, err := readFile(file)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := r.WriteFile(&out); err != nil {
			t.Fatal(err)
		}
		again, err := readFile(out.Bytes())
		if err != nil || !bytes.Equal(again.data, r.data) {
			t.Fatalf("the container written back does not reopen to its bytes: %v", err)
		}
	})
}

// TestBuildOffHeap: Build holds exactly the bytes WriteTo writes, and
// where the platform maps memory it maps exactly those (so BuiltBytes
// sums the Readers' sizes). There a big container costs the Go heap
// nothing and its memory goes with the Reader; under NoMmapEnv it is a
// heap buffer.
func TestBuildOffHeap(t *testing.T) {
	want := buildTestContainer(t)
	heapAlloc := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const big = 8 << 20
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("nommap=%v", noMmap), func(t *testing.T) {
			if noMmap {
				t.Setenv(NoMmapEnv, "1")
			}
			r, err := testWriter(t).Build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.data, want) {
				t.Fatalf("Build holds %d bytes, WriteTo wrote %d", len(r.data), len(want))
			}
			if mapped := mmapSupported && os.Getenv(NoMmapEnv) == ""; mapped && r.OffHeapBytes() != int64(len(want)) {
				t.Fatalf("Build mapped %d bytes for a %d-byte container", r.OffHeapBytes(), len(want))
			}
			checkTestContainer(t, r)

			w := NewWriter()
			w.Section("bulk", make([]byte, big))
			before := heapAlloc()
			r, err = w.Build()
			if err != nil {
				t.Fatal(err)
			}
			grew := heapAlloc() - before
			if offHeap := mmapSupported && os.Getenv(NoMmapEnv) == ""; offHeap && grew > big/8 || !offHeap && grew < big {
				t.Errorf("a %d-byte container grew the heap by %d bytes", big, grew)
			}
			released := make(chan struct{})
			runtime.AddCleanup(r, func(ch chan struct{}) { close(ch) }, released)
			runtime.KeepAlive(w)
			r, w = nil, nil
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-released:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("an unreachable Reader was not released")
		})
	}
}

// TestCorruption flips a byte at every offset region of the container —
// header, TOC, and the payload of every section — and asserts the reader
// refuses the file with an error rather than serving garbage or panicking.
func TestCorruption(t *testing.T) {
	data := buildTestContainer(t)
	// Flipping any single byte must be detected: magic/version/probe are
	// compared, the TOC is CRC'd, and every payload is CRC'd. Padding
	// bytes are the only undetected flips, so skip offsets that hold no
	// recorded content.
	covered := make([]bool, len(data))
	for i := 0; i < headerLen; i++ {
		covered[i] = true
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	tocLen := int(uint32(data[16]) | uint32(data[17])<<8 | uint32(data[18])<<16 | uint32(data[19])<<24)
	for i := headerLen; i < headerLen+tocLen; i++ {
		covered[i] = true
	}
	for name, s := range r.secs {
		if s.n == 0 {
			continue
		}
		for i := s.off; i < s.off+s.n; i++ {
			covered[i] = true
		}
		_ = name
	}
	flipped := 0
	for off, c := range covered {
		if !c {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if _, err := NewReader(mut); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
		flipped++
	}
	if flipped < headerLen {
		t.Fatalf("corruption sweep covered only %d offsets", flipped)
	}
}

func TestTruncation(t *testing.T) {
	data := buildTestContainer(t)
	for _, n := range []int{0, 3, headerLen - 1, headerLen, headerLen + 5, len(data) / 2, len(data) - 1} {
		if _, err := NewReader(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestWriterRejectsBadSections(t *testing.T) {
	w := NewWriter()
	w.Section("dup", []byte("a"))
	w.Section("dup", []byte("b"))
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("duplicate section accepted")
	}
	w = NewWriter()
	w.Section("", []byte("a"))
	if _, err := w.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("empty section name accepted")
	}
}

func TestMisalignedInputIsCopied(t *testing.T) {
	data := buildTestContainer(t)
	// Force a misaligned backing array by offsetting into a larger buffer.
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	r, err := NewReader(buf[1:])
	if err != nil {
		t.Fatalf("NewReader (misaligned): %v", err)
	}
	checkTestContainer(t, r)
}

// TestPackedStringsRejectsBadFraming: a packed column whose count or
// lengths do not fit its bytes is an error, not a short column — and is
// never trusted to size an allocation.
func TestPackedStringsRejectsBadFraming(t *testing.T) {
	for name, payload := range map[string][]byte{
		"empty section":         {},
		"count with no lengths": {3},
		"count past the bytes":  {0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a'},
		"length past the blob":  {1, 5, 'a', 'b'},
		"blob longer than sum":  {1, 1, 'a', 'b'},
		"overlong varint":       {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		w := NewWriter()
		w.Section("col", payload)
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.PackedStrings("col"); err == nil {
			t.Errorf("%s: PackedStrings = %q, want an error", name, got)
		}
	}
}

// deflatedPayload is a DeflatedStrings payload whose length prefix says
// declared and whose stream inflates to packed.
func deflatedPayload(t testing.TB, declared uint64, packed []byte) []byte {
	t.Helper()
	out := bytes.NewBuffer(binary.AppendUvarint(nil, declared))
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(packed); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// badDeflatedColumns are DeflatedStrings payloads a reader must refuse,
// each behind a valid CRC.
func badDeflatedColumns(t testing.TB) map[string][]byte {
	packed := packStrings(testStrings)
	good := deflatedPayload(t, uint64(len(packed)), packed)
	return map[string][]byte{
		"empty section":                   {},
		"not a deflate stream":            {4, 0xff, 0xff, 0xff, 0xff},
		"inflates to fewer than declared": deflatedPayload(t, uint64(len(packed))+1, packed),
		"inflates to more than declared":  deflatedPayload(t, uint64(len(packed))-1, packed),
		"stream truncated":                good[:len(good)-3],
		"bytes after the stream":          append(append([]byte(nil), good...), 0),
		"declared length of 2^40":         deflatedPayload(t, 1<<40, packed),
		"bad packed form inside":          deflatedPayload(t, 4, []byte{1, 5, 'a', 'b'}),
	}
}

// TestUints: a column is stored at the narrowest of 1, 2 or 4 bytes that
// holds its largest value, reads back value for value, and a section
// whose length is no such width times the count is an error.
func TestUints(t *testing.T) {
	cols := map[string][]uint32{
		"empty":   nil,
		"1 byte":  {0, 7, math.MaxUint8},
		"2 bytes": {0, math.MaxUint8 + 1, math.MaxUint16, 3},
		"4 bytes": {math.MaxUint16 + 1, 0, math.MaxUint32},
	}
	width := map[string]int{"empty": 0, "1 byte": 1, "2 bytes": 2, "4 bytes": 4}
	w := NewWriter()
	for _, name := range slices.Sorted(maps.Keys(cols)) {
		w.Uints(name, cols[name])
	}
	r, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range cols {
		if b, _ := r.Bytes(name); len(b) != width[name]*len(want) {
			t.Errorf("%s: %d bytes for %d values, want %d a value", name, len(b), len(want), width[name])
		}
		col, err := r.Uints(name, len(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range want {
			if got := col.At(i); got != v {
				t.Errorf("%s: value %d reads %d, want %d", name, i, got, v)
			}
		}
	}
	for name, n := range map[string]int{"1 byte": 2, "2 bytes": 3, "4 bytes": 5, "empty": 1} {
		if _, err := r.Uints(name, n); err == nil {
			t.Errorf("%s read as %d values without error", name, n)
		}
	}
}

// TestDeflatedStringsRejectsBadStreams: a deflated column whose stream
// disagrees with its declared length, or with itself, is an error, and no
// allocation is sized by the declared length alone.
func TestDeflatedStringsRejectsBadStreams(t *testing.T) {
	for name, payload := range badDeflatedColumns(t) {
		w := NewWriter()
		w.Section("col", payload)
		r, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := r.DeflatedStrings("col")
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: DeflatedStrings = %q, want an error", name, got)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusing the column allocated %d bytes", name, alloc)
		}
	}
}

// FuzzDecodeSnapshot mirrors internal/wal's fuzzing posture: arbitrary
// bytes must never panic the reader; they either parse (and then every
// accessor must stay in bounds) or fail with an error.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(buildTestContainer(f))
	data := buildTestContainer(f)
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	// The sections of an int8 vector segment (vecindex), two rows of four.
	seg := NewWriter()
	if err := seg.JSON("meta", map[string]any{"family": "flat-int8", "dim": 4, "count": 2}); err != nil {
		f.Fatal(err)
	}
	var segIDs FrontCoder
	segIDs.Add("table:t1")
	segIDs.Add("tuple:t1#0")
	seg.FrontCoded("ids", &segIDs)
	seg.Float32s("norms", []float32{0.0078, 0})
	seg.Int8s("codes", []int8{127, -127, 3, 0, 0, 0, 0, 0})
	var segBuf bytes.Buffer
	if _, err := seg.WriteTo(&segBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(segBuf.Bytes())
	// A front-coded column broken one way, behind valid checksums.
	badIDs := badFrontCodedColumns()
	for _, name := range slices.Sorted(maps.Keys(badIDs)) {
		w := NewWriter()
		w.Section("ids", badIDs[name])
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A deflated column that disagrees with its declared length or its
	// stream, behind valid checksums.
	for _, payload := range badDeflatedColumns(f) {
		w := NewWriter()
		w.Section("deflated", payload)
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		for _, name := range []string{"meta", "u32", "f32", "i8", "strs", "packed", "deflated", "deflated-none", "raw", "ids", "norms", "codes"} {
			if b, err := r.Bytes(name); err == nil {
				_ = len(b)
			}
			if col, err := r.Strings(name); err == nil {
				for i := 0; i < col.Len(); i++ {
					_ = col.Bytes(i)
				}
			}
			if col, err := r.FrontCoded(name); err == nil {
				// Every string decodes, in strictly ascending order, and is
				// found where it is.
				var prev []byte
				for i, b := range col.All() {
					if i > 0 && bytes.Compare(prev, b) >= 0 {
						t.Fatalf("%s: string %d %q not above %q", name, i, b, prev)
					}
					if at := col.AppendAt(nil, i); !bytes.Equal(at, b) {
						t.Fatalf("%s: string %d: All %q, AppendAt %q", name, i, b, at)
					}
					if got := col.Find(string(b)); got != i {
						t.Fatalf("%s: Find(%q) = %d, want %d", name, b, got, i)
					}
					prev = append(prev[:0], b...)
				}
			}
			_, _ = r.PackedStrings(name)
			_, _ = r.DeflatedStrings(name)
			_, _ = r.Uint32s(name)
			_, _ = r.Float32s(name)
			_, _ = r.Int8s(name)
			if col, err := r.Uints(name, 3); err == nil {
				_ = col.At(2)
			}
			var v any
			_ = r.JSON(name, &v)
		}
	})
}

// TestFrontCoded: a front-coded column decodes to the strings added, in
// order and one at a time, and Find locates each of them and nothing else.
func TestFrontCoded(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, len(testIDs)} {
		var e FrontCoder
		for _, id := range testIDs[:n] {
			e.Add(id)
		}
		w := NewWriter()
		w.FrontCoded("ids", &e)
		r, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		col, err := r.FrontCoded("ids")
		if err != nil {
			t.Fatalf("%d strings: %v", n, err)
		}
		if got := frontCodedStrings(col); col.Len() != n || !slices.Equal(got, testIDs[:n]) {
			t.Fatalf("%d strings: Len %d, decoded %q", n, col.Len(), got)
		}
		for i, id := range testIDs[:n] {
			if got := col.Find(id); got != i {
				t.Errorf("%d strings: Find(%q) = %d, want %d", n, id, got, i)
			}
			for _, near := range []string{id + "\x00", id + "~"} {
				if got := col.Find(near); got != -1 && testIDs[got] != near {
					t.Errorf("%d strings: Find(%q) = %d", n, near, got)
				}
			}
		}
		for _, absent := range []string{"\x00", "table:", "tuple:tbl-000000#", "tuple:tbl-000001#20", "\xff\xff"} {
			if got := col.Find(absent); got != -1 {
				t.Errorf("%d strings: Find(%q) = %d, want -1", n, absent, got)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { col.Find("tuple:tbl-000001#15") }); allocs != 0 {
			t.Errorf("%d strings: Find allocates %.1f times", n, allocs)
		}
		runtime.KeepAlive(r) // col views its memory
	}
	// Sorted IDs that differ in their last bytes cost a few bytes each.
	var e FrontCoder
	for i := 0; i < 1000; i++ {
		e.Add(fmt.Sprintf("tuple:tbl-%06d#%d", i/10, i%10))
	}
	w := NewWriter()
	w.FrontCoded("ids", &e)
	r, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Bytes("ids"); len(b) > 5*1000 {
		t.Errorf("1,000 18-byte IDs front-coded into %d bytes, want at most 5,000", len(b))
	}
}

// TestFrontCodedRejects: a front-coded column whose counts, offsets,
// lengths or order do not hold is an error at open, and no allocation is
// sized by its declared count.
func TestFrontCodedRejects(t *testing.T) {
	for name, payload := range badFrontCodedColumns() {
		w := NewWriter()
		w.Section("ids", payload)
		r, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		col, err := r.FrontCoded("ids")
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: opened with %d strings", name, col.Len())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
			t.Errorf("%s: refusing the column allocated %d bytes", name, alloc)
		}
	}
}
