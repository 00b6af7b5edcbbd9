package wal

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datalake"
	"repro/internal/faultfs"
)

func srcRecord(v uint64, id string) Record {
	return Record{Version: v, Kind: KindSource, Source: &datalake.Source{ID: id, Name: id, TrustPrior: 0.5}}
}

// drain reads until the reader reports caught-up, failing on error.
func drain(t *testing.T, r *TailReader) []Record {
	t.Helper()
	var out []Record
	for {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func TestTailReaderStreamsExistingAndLive(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Sync: SyncNone})
	defer l.Close()

	if err := l.Append(docRecord(1, "d1"), docRecord(2, "d2"), srcRecord(2, "s1")); err != nil {
		t.Fatal(err)
	}

	r := l.Tail(0)
	got := drain(t, r)
	if len(got) != 3 || got[0].Version != 1 || got[1].Version != 2 || got[2].Kind != KindSource {
		t.Fatalf("initial drain = %+v", got)
	}

	// Caught up: repeated Next stays ok=false without error.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("caught-up Next = ok=%v err=%v", ok, err)
	}

	// Live append becomes visible to the same reader.
	if err := l.Append(docRecord(3, "d3")); err != nil {
		t.Fatal(err)
	}
	got = drain(t, r)
	if len(got) != 1 || got[0].Version != 3 {
		t.Fatalf("live drain = %+v", got)
	}
}

func TestTailReaderCursorSkipsAndFilters(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 1})
	defer l.Close()

	// SegmentBytes=1 seals a segment per append: 1|2|s1|3|4 across segments.
	for _, rec := range []Record{docRecord(1, "d1"), docRecord(2, "d2"), srcRecord(2, "s1"), docRecord(3, "d3"), docRecord(4, "d4")} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	got := drain(t, l.Tail(2))
	// Sealed segments with maxVersion <= 2 are skipped wholesale (including
	// the source-only one — the cursor contract says it was consumed);
	// remaining events filter on version > 2.
	if len(got) != 2 || got[0].Version != 3 || got[1].Version != 4 {
		t.Fatalf("tail(2) = %+v", got)
	}

	// Cursor 0 must deliver everything, source-only segments included.
	got = drain(t, l.Tail(0))
	if len(got) != 5 {
		t.Fatalf("tail(0) delivered %d records, want 5", len(got))
	}

	// Cursor at the tip delivers nothing.
	if got = drain(t, l.Tail(4)); len(got) != 0 {
		t.Fatalf("tail(4) = %+v", got)
	}
}

func TestTailReaderSurvivesRotation(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Sync: SyncNone})
	defer l.Close()

	if err := l.Append(docRecord(1, "d1")); err != nil {
		t.Fatal(err)
	}
	r := l.Tail(0)
	if got := drain(t, r); len(got) != 1 {
		t.Fatalf("pre-rotation drain = %+v", got)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(docRecord(2, "d2")); err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("post-rotation drain = %+v", got)
	}
}

func TestTailReaderTruncatedUnderneath(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 1})
	defer l.Close()

	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(docRecord(v, "d")); err != nil {
			t.Fatal(err)
		}
	}
	r := l.Tail(0)
	// Read one record so the reader is pinned to the first (sealed) segment,
	// then truncate it away.
	if rec, ok, err := r.Next(); err != nil || !ok || rec.Version != 1 {
		t.Fatalf("first Next = %+v ok=%v err=%v", rec, ok, err)
	}
	if err := l.TruncateThrough(3, 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err != ErrTailTruncated {
		t.Fatalf("Next after truncation = %v, want ErrTailTruncated", err)
	}
}

func TestTailReaderConcurrentWithAppends(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 512})
	defer l.Close()

	const total = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= total; v++ {
			if err := l.Append(docRecord(v, "doc")); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	r := l.Tail(0)
	var want uint64 = 1
	deadline := time.Now().Add(10 * time.Second)
	for want <= total {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatalf("tail at version %d: %v", want, err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("reader stalled at version %d", want)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if rec.Version != want {
			t.Fatalf("got version %d, want %d (gap or reorder)", rec.Version, want)
		}
		want++
	}
	wg.Wait()
}

// readCountingFS counts the bytes read from files through it.
type readCountingFS struct {
	faultfs.FS
	read atomic.Int64
}

type readCountingFile struct {
	faultfs.File
	read *atomic.Int64
}

func (f readCountingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

func (c *readCountingFS) Open(name string) (faultfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return readCountingFile{f, &c.read}, nil
}

func (c *readCountingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	c.read.Add(int64(len(data)))
	return data, err
}

// TestTailReaderReadsEachByteOnce: a live reader that drains after each of
// n appends reads the segment about once in total, not once per fill.
func TestTailReaderReadsEachByteOnce(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	cfs := &readCountingFS{FS: faultfs.OS}
	l, _ := openReplay(t, dir, Options{Sync: SyncNone, FS: cfs})
	defer l.Close()
	r := l.Tail(0)
	for i := 1; i <= n; i++ {
		if err := l.Append(docRecord(uint64(i), "d")); err != nil {
			t.Fatal(err)
		}
		if got := drain(t, r); len(got) != 1 {
			t.Fatalf("append %d: drained %d records, want 1", i, len(got))
		}
	}
	fi, err := os.Stat(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if read := cfs.read.Load(); read > 2*fi.Size() {
		t.Fatalf("tail read %d bytes over %d fills of a %d-byte segment, want about the segment once", read, n, fi.Size())
	}
}
