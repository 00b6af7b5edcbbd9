package binfmt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildTestContainer writes one section of every supported column type.
func buildTestContainer(t testing.TB) []byte {
	t.Helper()
	w := NewWriter()
	if err := w.JSON("meta", map[string]any{"kind": "test", "n": 3}); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	w.Int32s("i32", []int32{-1, 0, math.MaxInt32})
	w.Uint32s("u32", []uint32{1, 2, 3, 4, 5})
	w.Float32s("f32", []float32{0.5, -2.25, 1e20})
	w.Int8s("i8", []int8{-128, 0, 127, 7})
	w.Strings("strs", []string{"alpha", "", "βγ", "zz"})
	w.PackedStrings("packed", []string{"alpha", "", "βγ", "\xff\x00", strings.Repeat("long", 64)})
	w.PackedStrings("packed-none", nil)
	w.Section("raw", []byte("payload"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
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
	i32, err := r.Int32s("i32")
	if err != nil || !reflect.DeepEqual(i32, []int32{-1, 0, math.MaxInt32}) {
		t.Fatalf("Int32s = %v, %v", i32, err)
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
		if strs.At(i) != s {
			t.Fatalf("strs[%d] = %q, want %q", i, strs.At(i), s)
		}
		if string(strs.Bytes(i)) != s {
			t.Fatalf("strs.Bytes(%d) = %q, want %q", i, strs.Bytes(i), s)
		}
	}
	packed, err := r.PackedStrings("packed")
	if err != nil || !reflect.DeepEqual(packed, []string{"alpha", "", "βγ", "\xff\x00", strings.Repeat("long", 64)}) {
		t.Fatalf("PackedStrings = %q, %v", packed, err)
	}
	if none, err := r.PackedStrings("packed-none"); err != nil || len(none) != 0 {
		t.Fatalf("PackedStrings(empty column) = %q, %v", none, err)
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

func TestOpenFileMmapAndFallback(t *testing.T) {
	data := buildTestContainer(t)
	path := filepath.Join(t.TempDir(), "c.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if mmapSupported && !r.Mapped() {
		t.Fatal("expected mmap-backed reader on this platform")
	}
	checkTestContainer(t, r)

	t.Setenv(NoMmapEnv, "1")
	r2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile (no mmap): %v", err)
	}
	if r2.Mapped() {
		t.Fatal("reader mapped despite NoMmapEnv")
	}
	checkTestContainer(t, r2)
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

// FuzzDecodeSnapshot mirrors internal/wal's fuzzing posture: arbitrary
// bytes must never panic the reader; they either parse (and then every
// accessor must stay in bounds) or fail with an error.
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
	seg.Strings("ids", []string{"tuple:t1#0", "table:t1"})
	seg.Uint32s("idsort", []uint32{1, 0})
	seg.Float32s("norms", []float32{0.0078, 0})
	seg.Int8s("codes", []int8{127, -127, 3, 0, 0, 0, 0, 0})
	var segBuf bytes.Buffer
	if _, err := seg.WriteTo(&segBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(segBuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		for _, name := range []string{"meta", "i32", "u32", "f32", "i8", "strs", "packed", "raw", "ids", "idsort", "norms", "codes"} {
			if b, err := r.Bytes(name); err == nil {
				_ = len(b)
			}
			if col, err := r.Strings(name); err == nil {
				for i := 0; i < col.Len(); i++ {
					_ = col.At(i)
				}
			}
			_, _ = r.PackedStrings(name)
			_, _ = r.Int32s(name)
			_, _ = r.Uint32s(name)
			_, _ = r.Float32s(name)
			_, _ = r.Int8s(name)
			var v any
			_ = r.JSON(name, &v)
		}
	})
}
