package binfmt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"unsafe"
)

// NoMmapEnv, set to a non-empty value, makes OffHeap hand out heap buffers
// instead of anonymous mappings: the containers Build makes and OpenFile
// inflates, and every other OffHeap buffer, then live on the Go heap.
// Exposed so tests and benchmarks can run both on the same machine.
const NoMmapEnv = "REPRO_BINFMT_NOMMAP"

// FileMagic starts a container file: WriteFile's header, then the
// inflated container's length (uint64, little-endian), then the container
// as one DEFLATE stream at flate.BestSpeed.
const FileMagic = "VAIZ"

const fileHeaderLen = len(FileMagic) + 8

// WriteFile writes the container to w as a container file (see FileMagic),
// which OpenFile reads back.
func (r *Reader) WriteFile(w io.Writer) error {
	var head [fileHeaderLen]byte
	copy(head[:], FileMagic)
	binary.LittleEndian.PutUint64(head[len(FileMagic):], uint64(len(r.data)))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("binfmt: write file header: %w", err)
	}
	fw, _ := flate.NewWriter(w, flate.BestSpeed) // fails only for an invalid level
	if _, err := fw.Write(r.data); err != nil {
		return fmt.Errorf("binfmt: write container: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("binfmt: write container: %w", err)
	}
	return nil
}

// OpenFile reads a container file WriteFile wrote, inflates it into one
// buffer from OffHeap owned by the Reader (read-only once filled, counted
// in BuiltBytes like a Build), and verifies it as NewReader does. A bad
// magic, a declared length the stream could not produce, and a stream
// that ends short of that length, runs past it or leaves bytes behind are
// errors, the length refused before anything is sized by it.
func OpenFile(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := readFile(data)
	if err != nil {
		return nil, fmt.Errorf("binfmt: %s: %w", path, err)
	}
	return r, nil
}

// readFile is OpenFile over the file's bytes.
func readFile(data []byte) (*Reader, error) {
	if len(data) < fileHeaderLen || string(data[:len(FileMagic)]) != FileMagic {
		return nil, fmt.Errorf("not a container file (magic %q)", data[:min(len(data), len(FileMagic))])
	}
	size := binary.LittleEndian.Uint64(data[len(FileMagic):])
	src := bytes.NewReader(data[fileHeaderLen:])
	if size > maxInflateRatio*uint64(src.Len()) || size > math.MaxInt {
		return nil, fmt.Errorf("declares a %d-byte container, its %d-byte stream cannot hold it", size, src.Len())
	}
	return openOffHeap(int(size), func(mem []byte) (int, error) {
		if err := inflateExactly(mem, src); err != nil {
			return 0, fmt.Errorf("container stream: %w", err)
		}
		return len(mem), nil
	})
}

// inflateExactly fills dst from the DEFLATE stream src holds, which must
// end where dst does, with nothing in src after it.
func inflateExactly(dst []byte, src *bytes.Reader) error {
	inflate := flate.NewReader(src)
	if _, err := io.ReadFull(inflate, dst); err != nil {
		return err
	}
	if extra, err := inflate.Read(make([]byte, 1)); extra != 0 {
		return fmt.Errorf("inflates past its %d declared bytes", len(dst))
	} else if err != io.EOF {
		return err
	}
	if src.Len() != 0 {
		return fmt.Errorf("%d bytes after the stream", src.Len())
	}
	return nil
}

// openOffHeap opens the container fill writes into a buffer of size bytes
// from OffHeap, owned by the returned Reader; fill reports how many bytes
// it wrote. A mapped buffer is read-only once filled and counted in
// BuiltBytes until the Reader is released.
func openOffHeap(size int, fill func(mem []byte) (int, error)) (*Reader, error) {
	r := new(Reader)
	mem, mapped := OffHeap(r, size)
	n, err := fill(mem)
	if err != nil {
		return nil, err
	}
	if mapped {
		if err := protectReadOnly(mem); err != nil {
			return nil, err
		}
		builtBytes.Add(int64(size))
		runtime.AddCleanup(r, func(n int64) { builtBytes.Add(-n) }, int64(size))
	}
	opened, err := NewReader(mem[:n])
	if err != nil {
		return nil, err
	}
	*r = *opened
	if mapped {
		r.offHeap = int64(size)
	}
	return r, nil
}

// alignedBuf returns a zeroed byte slice of length n whose backing array
// is 8-byte aligned (it is carved out of a []uint64), so typed section
// views cast cleanly.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
