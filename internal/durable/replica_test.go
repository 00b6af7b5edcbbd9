package durable

import (
	"archive/tar"
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/wal"
)

func replDoc(v uint64, id string) wal.Record {
	return wal.Record{Version: v, Kind: wal.KindDocument, Doc: &doc.Document{ID: id, Title: id, Text: "body " + id}}
}

func TestApplyReplicatedOrderSkipGap(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer st.Close()
	defer st.Lake().Close()
	st.Lake().SetReadOnly(true)

	// Fresh follower applies a contiguous stream with an interleaved source.
	n, err := st.ApplyReplicated([]wal.Record{
		replDoc(1, "d1"),
		{Version: 1, Kind: wal.KindSource, Source: &datalake.Source{ID: "src", Name: "s", TrustPrior: 0.9}},
		replDoc(2, "d2"),
	})
	if err != nil || n != 3 {
		t.Fatalf("ApplyReplicated = %d, %v", n, err)
	}
	if v := st.Lake().CommittedVersion(); v != 2 {
		t.Fatalf("CommittedVersion = %d, want 2", v)
	}
	if _, ok := st.Lake().Source("src"); !ok {
		t.Error("replicated source missing")
	}

	// Resumed stream overlapping the cursor: overlap skipped, tail applied,
	// nothing applied twice (duplicate IDs would error loudly if it were).
	n, err = st.ApplyReplicated([]wal.Record{replDoc(1, "d1"), replDoc(2, "d2"), replDoc(3, "d3")})
	if err != nil || n != 1 {
		t.Fatalf("overlapping ApplyReplicated = %d, %v", n, err)
	}
	if v := st.Lake().CommittedVersion(); v != 3 {
		t.Fatalf("CommittedVersion = %d, want 3", v)
	}

	// A gap must stop the applier.
	if _, err := st.ApplyReplicated([]wal.Record{replDoc(5, "d5")}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gapped ApplyReplicated = %v, want ErrReplicaGap", err)
	}
	if v := st.Lake().CommittedVersion(); v != 3 {
		t.Fatalf("CommittedVersion after gap = %d, want 3 (nothing applied)", v)
	}
}

// TestApplyReplicatedCommitsPrefixBeforeGap: the contiguous run before a
// gap is applied, and counted, before ErrReplicaGap stops the applier.
func TestApplyReplicatedCommitsPrefixBeforeGap(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer st.Close()
	defer st.Lake().Close()
	st.Lake().SetReadOnly(true)

	n, err := st.ApplyReplicated([]wal.Record{replDoc(1, "d1"), replDoc(2, "d2"), replDoc(4, "d4")})
	if !errors.Is(err, ErrReplicaGap) || n != 2 {
		t.Fatalf("ApplyReplicated over 1, 2, 4 = %d, %v; want 2, ErrReplicaGap", n, err)
	}
	if v := st.Lake().CommittedVersion(); v != 2 {
		t.Fatalf("CommittedVersion after gap = %d, want 2", v)
	}
}

// TestApplyReplicatedSurvivesRestart checks the follower's own durability:
// applied records land in its WAL (the store is Armed), so a killed and
// reopened follower recovers its exact cursor from local disk.
func TestApplyReplicatedSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	st.Lake().SetReadOnly(true)
	if _, err := st.ApplyReplicated([]wal.Record{replDoc(1, "d1"), replDoc(2, "d2")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: simulates a kill mid-stream.
	st.lock.release()

	st2 := openStore(t, dir, Options{Sync: wal.SyncNone})
	defer st2.Close()
	defer st2.Lake().Close()
	st2.Lake().SetReadOnly(true)
	if v := st2.Lake().CommittedVersion(); v != 2 {
		t.Fatalf("recovered cursor = %d, want 2", v)
	}
	// Resume applies only past the recovered cursor.
	n, err := st2.ApplyReplicated([]wal.Record{replDoc(1, "d1"), replDoc(2, "d2"), replDoc(3, "d3")})
	if err != nil || n != 1 {
		t.Fatalf("resume ApplyReplicated = %d, %v", n, err)
	}
}

func TestCheckpointTarRoundTrip(t *testing.T) {
	leaderDir := t.TempDir()
	leader := openStore(t, leaderDir, Options{Sync: wal.SyncNone})
	defer leader.Close()
	defer leader.Lake().Close()

	var buf bytes.Buffer
	if err := leader.WriteCheckpointTar(&buf); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("tar before checkpoint = %v, want ErrNoCheckpoint", err)
	}

	if err := leader.Lake().AddSource(datalake.Source{ID: "src", Name: "s", TrustPrior: 0.8}); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, leader.Lake(), 20, "d")
	ckptVersion, err := leader.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WriteCheckpointTar(&buf); err != nil {
		t.Fatal(err)
	}

	followerDir := filepath.Join(t.TempDir(), "follower")
	if has, err := HasCheckpoint(followerDir); err != nil || has {
		t.Fatalf("fresh dir HasCheckpoint = %v, %v", has, err)
	}
	if err := RestoreCheckpointTar(followerDir, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if has, err := HasCheckpoint(followerDir); err != nil || !has {
		t.Fatalf("restored dir HasCheckpoint = %v, %v", has, err)
	}

	// A second restore must refuse rather than clobber local state.
	if err := RestoreCheckpointTar(followerDir, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("second restore succeeded; want refusal")
	}

	f := openStore(t, followerDir, Options{Sync: wal.SyncNone})
	defer f.Close()
	defer f.Lake().Close()
	if v := f.CheckpointVersion(); v != ckptVersion {
		t.Fatalf("restored checkpoint version = %d, want %d", v, ckptVersion)
	}
	if v := f.Lake().CommittedVersion(); v != ckptVersion {
		t.Fatalf("restored lake version = %d, want %d", v, ckptVersion)
	}
	if got := f.Lake().Stats().Docs; got != 20 {
		t.Fatalf("restored docs = %d, want 20", got)
	}
	if _, ok := f.Lake().Source("src"); !ok {
		t.Error("restored checkpoint lost the source")
	}
}

func TestRestoreCheckpointTarRejectsEscapes(t *testing.T) {
	var buf bytes.Buffer
	tarWithEntry(t, &buf, "../escape", []byte("x"))
	if err := RestoreCheckpointTar(filepath.Join(t.TempDir(), "d"), &buf); err == nil {
		t.Fatal("path-escaping tar restored; want error")
	}
}

func TestRestoreCheckpointTarRejectsMissingMeta(t *testing.T) {
	var buf bytes.Buffer
	tarWithEntry(t, &buf, "catalog.json", []byte("{}"))
	if err := RestoreCheckpointTar(filepath.Join(t.TempDir(), "d"), &buf); err == nil {
		t.Fatal("META-less tar restored; want error")
	}
}

func tarWithEntry(t *testing.T, buf *bytes.Buffer, name string, data []byte) {
	t.Helper()
	tw := tar.NewWriter(buf)
	if err := tw.WriteHeader(&tar.Header{Name: name, Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(data))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChangeStreamRoundTripWAL exercises the leader-serving path most
// directly: Armed ingests land in the WAL, a TailReader streams them, and
// ApplyReplicated on a second store reproduces the exact catalog.
func TestChangeStreamRoundTripWAL(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer leader.Close()
	defer leader.Lake().Close()
	if err := leader.Lake().AddSource(datalake.Source{ID: "s1", Name: "s"}); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, leader.Lake(), 10, "w")

	follower := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer follower.Close()
	defer follower.Lake().Close()
	follower.Lake().SetReadOnly(true)

	r := leader.WAL().Tail(0)
	var recs []wal.Record
	for {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if _, err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if lv, fv := leader.Lake().CommittedVersion(), follower.Lake().CommittedVersion(); lv != fv {
		t.Fatalf("follower at %d, leader at %d", fv, lv)
	}
	if ld, fd := leader.Lake().Stats().Docs, follower.Lake().Stats().Docs; ld != fd {
		t.Fatalf("follower has %d docs, leader %d", fd, ld)
	}
}

// tailSources drains a TailReader of the store's WAL at cursor after and
// returns the IDs of the source records it delivers.
func tailSources(t *testing.T, st *Store, after uint64) []string {
	t.Helper()
	r := st.WAL().Tail(after)
	var ids []string
	for {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		if !ok {
			return ids
		}
		if rec.Kind == wal.KindSource {
			ids = append(ids, rec.Source.ID)
		}
	}
}

// TestSourceAfterForkSurvivesCheckpoint: a source registered after a
// checkpoint forked at version c is not covered by it, so a second
// checkpoint at c must neither truncate it away nor hide it from a
// follower that bootstrapped from the first (cursor c).
func TestSourceAfterForkSurvivesCheckpoint(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer func() { st.Lake().Close(); st.Close() }()
	mustIngest(t, st.Lake(), 2, "d")
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Lake().AddSource(datalake.Source{ID: "late", Name: "late", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Checkpoint(nil); err != nil || v != 2 {
		t.Fatalf("second checkpoint = %d, %v; want version 2", v, err)
	}
	if got := tailSources(t, st, 2); len(got) != 1 || got[0] != "late" {
		t.Fatalf("Tail(2) delivered sources %v, want [late]", got)
	}
}

// TestSourceAfterForkSurvivesRotation: the same source, sealed into a
// segment by a rotation with a later mutation behind it, still reaches a
// follower at the checkpoint's version.
func TestSourceAfterForkSurvivesRotation(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{Sync: wal.SyncNone})
	defer func() { st.Lake().Close(); st.Close() }()
	mustIngest(t, st.Lake(), 2, "d")
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Lake().AddSource(datalake.Source{ID: "late", Name: "late", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, st.Lake(), 1, "e")
	if got := tailSources(t, st, 2); len(got) != 1 || got[0] != "late" {
		t.Fatalf("Tail(2) delivered sources %v, want [late]", got)
	}
}

// TestReplayTailGapIsReplicaGap: recovery applies its own log as a
// follower applies a leader's, so a WAL that skips an event version fails
// with the follower's error rather than recommitting under a new version.
func TestReplayTailGapIsReplicaGap(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(replDoc(1, "d1"), replDoc(2, "d2"), replDoc(4, "d4")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Lake().Close(); st.Close() }()
	if err := st.ReplayTail(); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("ReplayTail over a gapped log = %v, want ErrReplicaGap", err)
	}
}
