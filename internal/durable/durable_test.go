package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
	"repro/internal/wal"
)

// openStore opens dir and runs the full recovery sequence (no indexer in
// these tests; the datalake alone is under test).
func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReplayTail(); err != nil {
		t.Fatal(err)
	}
	st.Arm()
	return st
}

func mustIngest(t *testing.T, lake *datalake.Lake, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := lake.AddDocument(&doc.Document{ID: fmt.Sprintf("%s%03d", prefix, i), Title: "t", Text: "body " + prefix}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverWithoutCheckpoint kills (abandons) a store before any
// checkpoint and recovers everything from the WAL alone.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	lake := st.Lake()
	if err := lake.AddSource(datalake.Source{ID: "src", Name: "a source", TrustPrior: 0.8}); err != nil {
		t.Fatal(err)
	}
	tbl := table.New("t1", "caption", []string{"a", "b"})
	tbl.MustAppendRow("1", "2")
	tbl.SourceID = "src"
	if err := lake.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, lake, 10, "d")
	if err := lake.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o", SourceID: "src"}); err != nil {
		t.Fatal(err)
	}
	wantVersion := lake.Version()
	// Simulate a kill: flush the page-cache writes but never checkpoint or
	// close cleanly.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	copyDir(t, dir, dir+"-crash")
	st2 := openStore(t, dir+"-crash", Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	lake2 := st2.Lake()
	if v := lake2.Version(); v != wantVersion {
		t.Fatalf("recovered version = %d, want %d", v, wantVersion)
	}
	if _, ok := lake2.Table("t1"); !ok {
		t.Error("recovered lake lost table t1")
	}
	if _, ok := lake2.Document("d007"); !ok {
		t.Error("recovered lake lost doc d007")
	}
	if got := lake2.Graph().Lookup("s", "p"); len(got) != 1 || got[0] != "o" {
		t.Errorf("recovered graph lookup = %v", got)
	}
	if src, ok := lake2.Source("src"); !ok || src.TrustPrior != 0.8 {
		t.Errorf("recovered source = %+v, %v", src, ok)
	}
	if st2.Stats().ReplayedRecords != 13 {
		t.Errorf("replayed %d records, want 13", st2.Stats().ReplayedRecords)
	}

	// The recovered store keeps accepting and logging writes at the right
	// versions.
	v, err := lake2.AddDocumentVersioned(&doc.Document{ID: "post", Text: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if v != wantVersion+1 {
		t.Fatalf("post-recovery version = %d, want %d", v, wantVersion+1)
	}
}

// TestCheckpointTruncatesAndRecovers checkpoints mid-stream and checks the
// WAL shrinks while recovery still sees everything (checkpoint + tail).
func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so pre-checkpoint records live in sealed segments.
	st := openStore(t, dir, Options{Sync: wal.SyncNone, segmentBytes: 256})
	lake := st.Lake()
	if err := lake.AddSource(datalake.Source{ID: "src", Name: "s"}); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, lake, 8, "pre")

	ckptV, err := st.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ckptV != 8 {
		t.Fatalf("checkpoint version = %d, want 8", ckptV)
	}
	if recs := st.Stats().WALRecords; recs != 0 {
		t.Fatalf("WAL still holds %d records after checkpoint", recs)
	}

	mustIngest(t, lake, 5, "post")
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	copyDir(t, dir, dir+"-crash")
	st2 := openStore(t, dir+"-crash", Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	lake2 := st2.Lake()
	if v := lake2.Version(); v != 13 {
		t.Fatalf("recovered version = %d, want 13", v)
	}
	for _, id := range []string{"pre003", "post004"} {
		if _, ok := lake2.Document(id); !ok {
			t.Errorf("recovered lake lost %s", id)
		}
	}
	if st2.Stats().CheckpointVersion != 8 {
		t.Errorf("recovered checkpoint version = %d, want 8", st2.Stats().CheckpointVersion)
	}
	if st2.Stats().ReplayedRecords != 5 {
		t.Errorf("replayed %d records, want 5 (the tail)", st2.Stats().ReplayedRecords)
	}
}

// TestTornTailDropped cuts the last WAL record short (a crash mid-append)
// and checks recovery drops exactly that unacknowledged record.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	mustIngest(t, st.Lake(), 5, "d")
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	crash := dir + "-crash"
	copyDir(t, dir, crash)
	// Chop bytes off the single WAL segment.
	segs, err := filepath.Glob(filepath.Join(crash, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, crash, Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if v := st2.Lake().Version(); v != 4 {
		t.Fatalf("recovered version = %d, want 4 (torn record dropped)", v)
	}
	if _, ok := st2.Lake().Document("d004"); ok {
		t.Error("torn record's document resurfaced")
	}
	if st2.Stats().WALTornBytes == 0 {
		t.Error("WALTornBytes = 0, want > 0")
	}
}

// TestCorruptMiddleFailsRecovery flips a byte mid-log: recovery must fail
// loudly rather than silently skip an acknowledged write.
func TestCorruptMiddleFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	mustIngest(t, st.Lake(), 5, "d")
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Lake().Close()
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("error does not mention CRC: %v", err)
	}
}

// TestInterruptedCheckpointSwap simulates the crash windows of the
// checkpoint swap and checks resolveCheckpoint repairs both.
func TestInterruptedCheckpointSwap(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	mustIngest(t, st.Lake(), 3, "d")
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, st.Lake(), 2, "post")
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash window 1: old checkpoint moved away, new one not yet in place.
	crash1 := dir + "-w1"
	copyDir(t, dir, crash1)
	if err := os.Rename(filepath.Join(crash1, "checkpoint"), filepath.Join(crash1, "checkpoint.old")); err != nil {
		t.Fatal(err)
	}
	st1 := openStore(t, crash1, Options{Sync: wal.SyncNone})
	if v := st1.Lake().Version(); v != 5 {
		t.Fatalf("window-1 recovery version = %d, want 5", v)
	}
	st1.Lake().Close()
	st1.Close()

	// Crash window 2: new checkpoint promoted, old one not yet removed.
	crash2 := dir + "-w2"
	copyDir(t, dir, crash2)
	copyDir(t, filepath.Join(crash2, "checkpoint"), filepath.Join(crash2, "checkpoint.old"))
	st2 := openStore(t, crash2, Options{Sync: wal.SyncNone})
	if v := st2.Lake().Version(); v != 5 {
		t.Fatalf("window-2 recovery version = %d, want 5", v)
	}
	if _, err := os.Stat(filepath.Join(crash2, "checkpoint.old")); !os.IsNotExist(err) {
		t.Error("stale checkpoint.old not cleaned up")
	}
	st2.Lake().Close()
	st2.Close()
}

// copyDir recursively copies a directory tree (the crash-image helper:
// recovery always runs on a copy, so the original store's goroutines and
// file handles cannot help it).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, info.Mode())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}
