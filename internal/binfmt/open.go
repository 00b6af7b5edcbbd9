package binfmt

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"unsafe"
)

// NoMmapEnv disables the mmap fast path when set to a non-empty value,
// forcing OpenFile onto the portable read-everything fallback and OffHeap
// (so Build) onto heap buffers. Exposed so benchmarks can measure both
// paths on the same machine.
const NoMmapEnv = "REPRO_BINFMT_NOMMAP"

// OpenFile opens and fully verifies a container file. On supported
// platforms the file is memory-mapped read-only, so opening costs one
// verification pass over the page cache and no heap materialization; the
// mapping is released by a cleanup when the Reader (and every structure
// pinning it) becomes unreachable. Elsewhere — or when NoMmapEnv is set —
// the file is read into an aligned buffer instead.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("binfmt: stat %s: %w", path, err)
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("binfmt: %s too large to map (%d bytes)", path, size)
	}
	if mmapSupported && os.Getenv(NoMmapEnv) == "" {
		data, err := mmapFile(f, int(size))
		if err == nil {
			r, rerr := NewReader(data)
			if rerr != nil {
				munmap(data)
				return nil, fmt.Errorf("binfmt: %s: %w", path, rerr)
			}
			r.mapped = true
			// Every structure that retains a section view also retains
			// the Reader (see Reader docs), so the mapping cannot be
			// released while a view is still reachable. Close is
			// deliberately absent: core's Indexer contract keeps indexes
			// searchable after Close, so an eager unmap would turn a late
			// search into a fault.
			runtime.AddCleanup(r, munmap, data)
			return r, nil
		}
		// Fall through to the portable path on any mmap failure.
	}
	buf := alignedBuf(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("binfmt: read %s: %w", path, err)
	}
	r, err := NewReader(buf)
	if err != nil {
		return nil, fmt.Errorf("binfmt: %s: %w", path, err)
	}
	return r, nil
}

// alignedBuf returns a zeroed byte slice of length n whose backing array
// is 8-byte aligned (it is carved out of a []uint64), so typed section
// views cast cleanly on the fallback path.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
