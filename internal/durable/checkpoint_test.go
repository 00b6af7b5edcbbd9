package durable

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// TestCheckpointDoesNotBlockIngest is the deterministic gate on the
// two-phase protocol: it parks a checkpoint inside its write phase and
// proves ingestion completes meanwhile — under the old single-phase
// protocol (snapshot inside Quiesce) the ingest below would deadlock
// against the held write lock until the test timed out.
func TestCheckpointDoesNotBlockIngest(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	defer func() { st.Lake().Close(); st.Close() }()
	mustIngest(t, st.Lake(), 10, "pre")

	writing := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var forkVersion uint64
	go func() {
		_, err := st.Checkpoint(func(v *datalake.View) (WriteFunc, error) {
			forkVersion = v.Version()
			return func(faultfs.FS, string) (AdoptFunc, error) {
				close(writing) // quiescence released; write phase running
				<-release
				return nil, nil
			}, nil
		})
		done <- err
	}()
	<-writing

	// Ingestion proceeds during the write phase (this blocks forever if
	// the checkpoint still holds the lake's write lock).
	mustIngest(t, st.Lake(), 5, "during")
	if v := st.Lake().Version(); v != 15 {
		t.Fatalf("mid-checkpoint lake version = %d, want 15", v)
	}

	// A second checkpoint does not queue behind the first.
	if _, err := st.Checkpoint(nil); !errors.Is(err, ErrCheckpointInFlight) {
		t.Fatalf("overlapping Checkpoint error = %v, want ErrCheckpointInFlight", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint failed: %v", err)
	}
	if forkVersion != 10 {
		t.Fatalf("fork pinned version %d, want 10 (the pre-fork state)", forkVersion)
	}
	if got := st.CheckpointVersion(); got != 10 {
		t.Fatalf("checkpoint version = %d, want 10", got)
	}
	stats := st.Stats()
	if stats.LastForkNanos <= 0 || stats.LastWriteNanos <= 0 {
		t.Errorf("phase durations not recorded: fork=%d write=%d", stats.LastForkNanos, stats.LastWriteNanos)
	}

	// The during-checkpoint writes live in the post-fork WAL segment:
	// recovery must see checkpoint@10 plus the 5-record tail.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dir, dir+"-crash")
	st2 := openStore(t, dir+"-crash", Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if v := st2.Lake().Version(); v != 15 {
		t.Fatalf("recovered version = %d, want 15", v)
	}
	if st2.Stats().CheckpointVersion != 10 {
		t.Fatalf("recovered checkpoint version = %d, want 10", st2.Stats().CheckpointVersion)
	}
	if st2.Stats().ReplayedRecords != 5 {
		t.Fatalf("replayed %d records, want 5", st2.Stats().ReplayedRecords)
	}
	for _, id := range []string{"pre007", "during004"} {
		if _, ok := st2.Lake().Document(id); !ok {
			t.Errorf("recovered lake lost %s", id)
		}
	}
}

// TestCheckpointFreezeErrorAborts checks a freeze failure aborts the
// checkpoint cleanly before anything is written, and the store stays
// usable.
func TestCheckpointFreezeErrorAborts(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer func() { st.Lake().Close(); st.Close() }()
	mustIngest(t, st.Lake(), 3, "d")
	boom := errors.New("boom")
	if _, err := st.Checkpoint(func(*datalake.View) (WriteFunc, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint error = %v, want boom", err)
	}
	if st.CheckpointVersion() != 0 {
		t.Fatalf("aborted checkpoint advanced version to %d", st.CheckpointVersion())
	}
	mustIngest(t, st.Lake(), 2, "after")
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint after aborted freeze: %v", err)
	}
	if st.CheckpointVersion() != 5 {
		t.Fatalf("checkpoint version = %d, want 5", st.CheckpointVersion())
	}
}

// TestCloseWaitsForCheckpoint parks a checkpoint in its write phase and
// calls Close: Close must not return (closing the WAL, releasing the
// directory lock) until the checkpoint finishes, or a second process
// could open a directory whose checkpoint dirs and WAL segments the old
// process is still renaming and deleting.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	mustIngest(t, st.Lake(), 5, "d")

	writing := make(chan struct{})
	release := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		_, err := st.Checkpoint(func(*datalake.View) (WriteFunc, error) {
			return func(faultfs.FS, string) (AdoptFunc, error) {
				close(writing)
				<-release
				return nil, nil
			}, nil
		})
		ckptDone <- err
	}()
	<-writing

	st.Lake().Close()
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the checkpoint write phase was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The lock was held throughout; a fresh Open now succeeds and sees the
	// completed checkpoint.
	st2 := openStore(t, dir, Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if got := st2.Stats().CheckpointVersion; got != 5 {
		t.Fatalf("recovered checkpoint version = %d, want 5", got)
	}
}

// TestDataDirLock checks the cross-process lock: a second Open fails fast
// with ErrLocked while the first store is open, and succeeds after Close.
func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open error = %v, want ErrLocked", err)
	}
	st.Lake().Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, Options{Sync: wal.SyncNone})
	st2.Lake().Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayTailStreamsInBatches replays a tail far longer than the
// replay batch size (with source records interleaved to pin WAL-order
// application) and checks everything lands once, in order.
func TestReplayTailStreamsInBatches(t *testing.T) {
	dir := t.TempDir()
	// Small segments so the tail spans many segment files too.
	st := openStore(t, dir, Options{Sync: wal.SyncNone, SegmentBytes: 4096})
	lake := st.Lake()
	n := 3*replayBatchSize + 17
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			if err := lake.AddSource(datalake.Source{ID: fmt.Sprintf("src-%03d", i), Name: "s"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lake.AddDocument(&doc.Document{ID: fmt.Sprintf("d-%05d", i), Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	copyDir(t, dir, dir+"-crash")
	st2 := openStore(t, dir+"-crash", Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if v := st2.Lake().Version(); v != uint64(n) {
		t.Fatalf("recovered version = %d, want %d", v, n)
	}
	for _, i := range []int{0, replayBatchSize, 2*replayBatchSize + 1, n - 1} {
		if _, ok := st2.Lake().Document(fmt.Sprintf("d-%05d", i)); !ok {
			t.Errorf("recovered lake lost d-%05d", i)
		}
	}
	if _, ok := st2.Lake().Source("src-700"); !ok {
		t.Error("recovered lake lost interleaved source src-700")
	}
	srcCount := (n + 99) / 100
	if got := len(st2.Lake().Sources()); got != srcCount {
		t.Errorf("recovered %d sources, want %d", got, srcCount)
	}
	if got := st2.Stats().ReplayedRecords; got != n+srcCount {
		t.Errorf("ReplayedRecords = %d, want %d", got, n+srcCount)
	}
}

// TestConcurrentCheckpointsSerialize hammers Checkpoint from several
// goroutines against live ingestion: exactly in-flight rejections, no
// deadlocks, and the checkpoint version never regresses.
func TestConcurrentCheckpointsSerialize(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer func() { st.Lake().Close(); st.Close() }()
	stop := make(chan struct{})
	var ingestErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Lake().AddDocument(&doc.Document{ID: fmt.Sprintf("cc-%06d", i), Text: "x"}); err != nil {
				ingestErr = err
				return
			}
		}
	}()
	var (
		mu        sync.Mutex
		succeeded int
		rejected  int
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, err := st.Checkpoint(nil)
				mu.Lock()
				switch {
				case err == nil:
					succeeded++
				case errors.Is(err, ErrCheckpointInFlight):
					rejected++
				default:
					t.Errorf("checkpoint error: %v", err)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Let the checkpointers finish, then stop the writer.
	waitCheckpoints := make(chan struct{})
	go func() { wg.Wait(); close(waitCheckpoints) }()
	<-time.After(50 * time.Millisecond)
	close(stop)
	<-waitCheckpoints
	if ingestErr != nil {
		t.Fatalf("ingest under concurrent checkpoints failed: %v", ingestErr)
	}
	if succeeded == 0 {
		t.Fatal("no checkpoint succeeded")
	}
	t.Logf("checkpoints: %d succeeded, %d rejected in flight", succeeded, rejected)
}
