package verifai

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/workload"
)

// copyTree copies a data directory, producing the crash image recovery
// runs on: the original system's goroutines and open files can't help a
// copy, exactly like a killed process's on-disk state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), info.Mode())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// durableOpts is ExactOptions plus an always-fsync WAL, so every
// acknowledged write is durable the moment AddX returns — the posture the
// kill tests rely on.
func durableOpts(seed uint64) OpenOptions {
	return OpenOptions{Options: ExactOptions(seed), Sync: "always"}
}

// TestDurableKillRecovery is the acceptance case: a durable system killed
// without a checkpoint recovers every acknowledged write — version,
// catalog, and retrievability — from the WAL alone.
func TestDurableKillRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(filepath.Join(dir, "data"), durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: "cases"}); err != nil {
		t.Fatal(err)
	}
	wantVersion := sys.LakeVersion()
	if wantVersion == 0 {
		t.Fatal("no versions committed")
	}

	// Kill: no Checkpoint, no Close — recover from a copy of the on-disk
	// state (sync=always means every acknowledged write is down there).
	crash := filepath.Join(dir, "crash")
	copyTree(t, filepath.Join(dir, "data"), crash)

	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != wantVersion {
		t.Fatalf("recovered LakeVersion = %d, want %d", v, wantVersion)
	}
	ds, ok := recovered.Durability()
	if !ok {
		t.Fatal("recovered system reports no durability")
	}
	if ds.ReplayedRecords == 0 {
		t.Error("recovery replayed no WAL records")
	}

	// The recovered indexes serve the paper's Figure 4 claim end to end.
	report, err := recovered.VerifyClaim("rec-golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Refuted {
		t.Errorf("recovered verdict = %v, want Refuted", report.Verdict)
	}

	// And keep accepting writes at the right version.
	if err := recovered.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if v := recovered.LakeVersion(); v != wantVersion+1 {
		t.Errorf("post-recovery version = %d, want %d", v, wantVersion+1)
	}
}

// TestDurableCheckpointRecovery checkpoints, keeps writing, kills, and
// recovers: the state comes from checkpoint + WAL tail, and the index
// snapshot is actually used (same retrieval results either way).
func TestDurableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	ckptV, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckptV != sys.LakeVersion() {
		t.Fatalf("checkpoint version %d != lake version %d", ckptV, sys.LakeVersion())
	}
	// Post-checkpoint tail.
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	want := sys.LakeVersion()

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != want {
		t.Fatalf("recovered version = %d, want %d", v, want)
	}
	ds, _ := recovered.Durability()
	if ds.CheckpointVersion != ckptV {
		t.Errorf("recovered checkpoint version = %d, want %d", ds.CheckpointVersion, ckptV)
	}
	if ds.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want 1 (just the post-checkpoint doc)", ds.ReplayedRecords)
	}
	report, err := recovered.VerifyClaim("rec-golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Refuted {
		t.Errorf("recovered verdict = %v, want Refuted", report.Verdict)
	}
	// The post-checkpoint document (WAL tail) is retrievable too.
	got := recovered.Retrieve(NewClaimObject("q", workload.StompTheYardClaim()), 5, KindText)
	if len(got) == 0 {
		t.Error("post-checkpoint document not retrievable after recovery")
	}
}

// TestCheckpointLeavesProcessWhereRestartWould: a checkpoint is a flush.
// After it the running system holds its indexes the way a system reopened
// on the same directory does — every shard a mapped file, only the writes
// since on the heap — and the two answer alike.
func TestCheckpointLeavesProcessWhereRestartWould(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{workload.USOpen1954Table(), workload.USOpen1959Table(), workload.OhioDistrictsTable()} {
		if err := sys.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Pipeline().Indexer().IndexStats()
	if bm25 := before.Families["bm25"]; bm25.MappedBytes != 0 || bm25.DeltaDocs == 0 {
		t.Fatalf("before any checkpoint: %+v", before)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil { // the tail a restart replays
		t.Fatal(err)
	}
	after := sys.Pipeline().Indexer().IndexStats()
	if after.Adopted != 8 || after.Skipped != 0 || after.Families["bm25"].HeapBytes != 0 || after.Families["vector"].HeapBytes == 0 {
		t.Errorf("after the checkpoint and one write: %+v", after)
	}
	want, err := sys.VerifyClaim("golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Pipeline().Indexer().IndexStats(); !reflect.DeepEqual(got.Families, after.Families) {
		t.Errorf("residency differs:\n checkpointed %+v\n reopened     %+v", after.Families, got.Families)
	}
	got, err := reopened.VerifyClaim("golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reports differ:\n checkpointed %+v\n reopened     %+v", want, got)
	}
}

// TestDurableTornTailRecovery truncates the WAL mid-record (a crash in the
// middle of an append) and checks recovery drops exactly the torn,
// unacknowledged record and keeps everything before it.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := sys.AddDocument(&Document{ID: fmt.Sprintf("doc%02d", i), Title: "t", Text: fmt.Sprintf("body %d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	segs, err := filepath.Glob(filepath.Join(crash, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v (%d)", err, len(segs))
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-9); err != nil {
		t.Fatal(err)
	}

	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != n-1 {
		t.Fatalf("recovered version = %d, want %d (torn final record dropped)", v, n-1)
	}
	if _, ok := recovered.Pipeline().Lake().Document(fmt.Sprintf("doc%02d", n-1)); ok {
		t.Error("torn record's document resurfaced")
	}
	if _, ok := recovered.Pipeline().Lake().Document(fmt.Sprintf("doc%02d", n-2)); !ok {
		t.Error("intact record lost")
	}
	ds, _ := recovered.Durability()
	if ds.WALTornBytes == 0 {
		t.Error("WALTornBytes = 0, want > 0")
	}
}

// TestCheckpointDuringIngestRecovery overlaps System.Checkpoint with a
// concurrent ingest burst — the two-phase protocol's whole point — then
// kills and recovers. Whatever the interleaving, recovery must see every
// acknowledged write: the checkpoint (pinned at its fork version, index
// snapshot included) plus the WAL tail replayed through the indexer.
func TestCheckpointDuringIngestRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}

	const burst = 30
	ingested := make(chan error, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if err := sys.AddDocument(&Document{
				ID:   fmt.Sprintf("burst%03d", i),
				Text: fmt.Sprintf("burst document %d ingested while a checkpoint writes", i),
			}); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	ckptV, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err != nil {
		t.Fatalf("ingest during checkpoint: %v", err)
	}
	want := sys.LakeVersion()
	if want != burst+1 {
		t.Fatalf("final version = %d, want %d", want, burst+1)
	}
	if ckptV > want {
		t.Fatalf("checkpoint version %d beyond lake version %d", ckptV, want)
	}

	// Kill and recover from a crash image.
	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != want {
		t.Fatalf("recovered version = %d, want %d", v, want)
	}
	ds, _ := recovered.Durability()
	if ds.CheckpointVersion != ckptV {
		t.Errorf("recovered checkpoint version = %d, want %d", ds.CheckpointVersion, ckptV)
	}
	if got := uint64(ds.ReplayedRecords); got != want-ckptV {
		t.Errorf("replayed %d records, want %d (the post-fork tail)", got, want-ckptV)
	}
	// Every burst document — whether it landed in the checkpoint or the
	// tail — is present and retrievable through the recovered indexes.
	for i := 0; i < burst; i++ {
		id := fmt.Sprintf("burst%03d", i)
		if _, ok := recovered.Pipeline().Lake().Document(id); !ok {
			t.Fatalf("recovered lake lost %s", id)
		}
	}
	got := recovered.Retrieve(NewClaimObject("q", workload.GolfClaim()), 5, KindTable)
	if len(got) == 0 {
		t.Error("recovered table index returned nothing")
	}
}

// TestOpenLockedDataDir checks the cross-process lock at the public API:
// a second Open of a live data dir fails fast with ErrDataDirLocked.
func TestOpenLockedDataDir(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(data, durableOpts(1)); !errors.Is(err, ErrDataDirLocked) {
		t.Fatalf("second Open error = %v, want ErrDataDirLocked", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer sys2.Close()
}

// TestOpenValidation covers the error surfaces of the durable API.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), OpenOptions{Options: ExactOptions(1), Sync: "bogus"}); err == nil {
		t.Error("bogus sync policy accepted")
	}
	lake := NewLake()
	defer lake.Close()
	sys, err := NewSystem(lake, ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory system succeeded")
	}
	if _, ok := sys.Durability(); ok {
		t.Error("in-memory system reports durability")
	}
}

// TestBinarySnapshotRecoverySmoke is the recovery smoke CI's race job runs:
// checkpoint a durable system, confirm the checkpointed index
// shards on disk are binfmt containers (magic "VAIB"), then recover from a
// copied tree and check the snapshot alone — zero WAL replay — reproduces
// the live system's retrieval.
func TestBinarySnapshotRecoverySmoke(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	opts := durableOpts(1)
	sys, err := Open(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	q := NewClaimObject("q", workload.GolfClaim())
	want := sys.Retrieve(q, 5, KindTable)
	if len(want) == 0 {
		t.Fatal("no live retrieval hits")
	}

	shards, err := filepath.Glob(filepath.Join(data, "checkpoint", "indexes", "*.idx"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no checkpointed index shards: %v (%d)", err, len(shards))
	}
	for _, p := range shards {
		head, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(head) < 4 || string(head[:4]) != "VAIB" {
			t.Errorf("%s: not a binfmt container (head %q)", filepath.Base(p), head[:min(4, len(head))])
		}
	}

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	ds, _ := recovered.Durability()
	if ds.ReplayedRecords != 0 {
		t.Errorf("replayed %d WAL records, want 0 (checkpoint covers everything)", ds.ReplayedRecords)
	}
	got := recovered.Retrieve(q, 5, KindTable)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered retrieval = %v, want %v", got, want)
	}
}

// TestStaleFormatSnapshotRebuilds pins the ways a checkpointed index
// shard can be unusable. A shard that does not start with the binfmt
// magic was written by a release older than the container format, and a
// directory whose fingerprint names no vector row format by one whose flat
// shards held float32 rows, one with "shards": 4 by one whose indexes were
// hash-sharded: indexes are derived data, so recovery
// re-indexes from the catalog and verdicts match a fresh build. A shard
// that IS a container but has a flipped byte is corruption, and Open must
// fail instead of rebuilding over a bad disk.
func TestStaleFormatSnapshotRebuilds(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ingest := func(s *System) {
		t.Helper()
		for _, tbl := range []*Table{workload.USOpen1954Table(), workload.USOpen1959Table()} {
			if err := s.AddTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDocument(workload.MeaganGoodDoc()); err != nil {
			t.Fatal(err)
		}
	}
	ingest(sys)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewSystem(NewLake(), ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ingest(fresh)
	want, err := fresh.VerifyClaim("q", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}

	overwriteShard := func(tree, family string, mutate func([]byte) []byte) {
		t.Helper()
		shards, err := filepath.Glob(filepath.Join(tree, "checkpoint", "indexes", family+"-*.idx"))
		if err != nil || len(shards) == 0 {
			t.Fatalf("no checkpointed %s shards: %v", family, err)
		}
		raw, err := os.ReadFile(shards[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shards[0], mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name, family string
		content      []byte
	}{
		{"bm25 shard in an older encoding", "bm25", []byte("\x0e\xff\x81\x03\x01\x01\x08snapshot")},
		{"vector shard shorter than the magic", "vector", []byte("VA")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stale := filepath.Join(t.TempDir(), "stale")
			copyTree(t, data, stale)
			overwriteShard(stale, tc.family, func([]byte) []byte { return tc.content })
			recovered, err := Open(stale, durableOpts(1))
			if err != nil {
				t.Fatalf("stale-format shard was not rebuilt: %v", err)
			}
			defer recovered.Close()
			got, err := recovered.VerifyClaim("q", workload.GolfClaim())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("re-indexed report differs from a fresh build:\n got %+v\nwant %+v", got, want)
			}
		})
	}

	// Vector shards in float32 rows, under the fingerprints that named
	// them: the flat layout before int8 segments, and an IVF index (its
	// untrained layout) from when the indexer could be configured to run
	// one.
	for _, tc := range []struct {
		name   string
		shard  map[string]any
		vector string
	}{
		{"vector shards with float32 rows", map[string]any{"family": "flat", "metric": 0, "dim": 128, "count": 2}, `"vector": 0,`},
		{"vector shards of an ivf index", map[string]any{"family": "ivf", "metric": 0, "dim": 128, "count": 2, "nlist": 64, "nprobe": 8, "seed": 1},
			`"vector": 1, "ivf_lists": 64, "ivf_probes": 8,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stale := filepath.Join(t.TempDir(), "stale")
			copyTree(t, data, stale)
			indexes := filepath.Join(stale, "checkpoint", "indexes")
			shards, err := filepath.Glob(filepath.Join(indexes, "vector-*.idx"))
			if err != nil || len(shards) == 0 {
				t.Fatalf("no checkpointed vector shards: %v", err)
			}
			// Meta, ids, and every row as 128 floats.
			for _, path := range shards {
				bw := binfmt.NewWriter()
				if err := bw.JSON("meta", tc.shard); err != nil {
					t.Fatal(err)
				}
				bw.Strings("ids", []string{"table:a", "table:b"})
				bw.Float32s("vecs", make([]float32, 2*128))
				var buf bytes.Buffer
				if _, err := bw.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			metaPath := filepath.Join(indexes, "meta.json")
			meta, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			older := bytes.Replace(meta, []byte(`"vector_rows": "int8",`), nil, 1)
			older = bytes.Replace(older, []byte(`"vector": 0,`), []byte(tc.vector), 1)
			if !bytes.Contains(meta, []byte(`"vector": 0,`)) || bytes.Equal(older, meta) {
				t.Fatalf("meta.json names no vector index or row format: %s", meta)
			}
			if err := os.WriteFile(metaPath, older, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, err := Open(stale, durableOpts(1))
			if err != nil {
				t.Fatalf("the directory was not re-indexed: %v", err)
			}
			defer recovered.Close()
			got, err := recovered.VerifyClaim("q", workload.GolfClaim())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("re-indexed report differs from a fresh build:\n got %+v\nwant %+v", got, want)
			}
		})
	}

	t.Run("bm25 shards with int32 postings", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		indexes := filepath.Join(stale, "checkpoint", "indexes")
		shards, err := filepath.Glob(filepath.Join(indexes, "bm25-*.idx"))
		if err != nil || len(shards) == 0 {
			t.Fatalf("no checkpointed bm25 shards: %v", err)
		}
		// The BM25 layout as it was: every (doc, freq) pair as two int32s
		// and no postoff column.
		for _, path := range shards {
			bw := binfmt.NewWriter()
			if err := bw.JSON("meta", map[string]any{"family": "bm25", "k1": 1.2, "b": 0.75, "docs": 1, "terms": 1, "pairs": 1, "total_len": 2}); err != nil {
				t.Fatal(err)
			}
			bw.Strings("ids", []string{"table:a"})
			bw.Int32s("lengths", []int32{2})
			bw.Uint32s("idsort", []uint32{0})
			bw.Strings("terms", []string{"golf"})
			bw.Uint32s("postidx", []uint32{0, 1})
			bw.Int32s("postings", []int32{0, 2})
			var buf bytes.Buffer
			if _, err := bw.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Under this build's format number the old shards are corruption,
		// and the open says so.
		if bad, err := Open(stale, durableOpts(1)); err == nil {
			bad.Close()
			t.Fatal("int32-postings shards opened under the current snapshot format")
		}
		metaPath := filepath.Join(indexes, "meta.json")
		meta, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		older := bytes.Replace(meta, []byte(`"format": 2,`), []byte(`"format": 1,`), 1)
		if bytes.Equal(older, meta) {
			t.Fatalf("meta.json is not at snapshot format 2: %s", meta)
		}
		if err := os.WriteFile(metaPath, older, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := Open(stale, durableOpts(1))
		if err != nil {
			t.Fatalf("a directory in the int32-postings layout was not re-indexed: %v", err)
		}
		defer recovered.Close()
		got, err := recovered.VerifyClaim("q", workload.GolfClaim())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("re-indexed report differs from a fresh build:\n got %+v\nwant %+v", got, want)
		}
	})

	// A directory from when each index could be hash-sharded, four ways:
	// this build opens one file per (kind, family) and reads only "-000".
	t.Run("indexes in four hash shards", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		indexes := filepath.Join(stale, "checkpoint", "indexes")
		files, err := filepath.Glob(filepath.Join(indexes, "*-000.idx"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no checkpointed index files: %v", err)
		}
		for _, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for shard := 1; shard < 4; shard++ {
				if err := os.WriteFile(strings.Replace(path, "-000.idx", fmt.Sprintf("-%03d.idx", shard), 1), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		metaPath := filepath.Join(indexes, "meta.json")
		meta, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		sharded := bytes.Replace(meta, []byte(`"shards": 1`), []byte(`"shards": 4`), 1)
		if bytes.Equal(sharded, meta) {
			t.Fatalf("meta.json names no shard count: %s", meta)
		}
		if err := os.WriteFile(metaPath, sharded, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := Open(stale, durableOpts(1))
		if err != nil {
			t.Fatalf("a four-shard directory was not re-indexed: %v", err)
		}
		defer recovered.Close()
		got, err := recovered.VerifyClaim("q", workload.GolfClaim())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("re-indexed report differs from a fresh build:\n got %+v\nwant %+v", got, want)
		}
	})

	corrupt := filepath.Join(dir, "corrupt")
	copyTree(t, data, corrupt)
	overwriteShard(corrupt, "bm25", func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw })
	if bad, err := Open(corrupt, durableOpts(1)); err == nil {
		bad.Close()
		t.Fatal("a corrupt binfmt shard opened without error")
	}
}
