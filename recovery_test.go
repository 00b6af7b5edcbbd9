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
	"repro/internal/core"
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
// After it the running system holds its BM25 indexes the way a system
// reopened on the same directory does — every shard the one segment its
// file holds, the writes since in the delta on the heap — every vector
// shard sealed but
// for those writes, and the two answer alike. (A running vector shard is
// the list of segments it sealed, which its retained snapshots share; a
// restart derives one segment per shard.)
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
	if bm25 := before.Families["bm25"]; bm25.DeltaDocs == 0 {
		t.Fatalf("before any checkpoint: %+v", before)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil { // the tail a restart replays
		t.Fatal(err)
	}
	after := sys.Pipeline().Indexer().IndexStats()
	if bm25 := after.Families["bm25"]; bm25.Segments != 4 || bm25.HeapBytes <= bm25.TailBytes || bm25.TailBytes == 0 || after.Families["vector"].HeapBytes == 0 {
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
	// What the BM25 segments hold, less the deltas' own estimate of their
	// heap, which counts posting-list slots by the dictionary's size.
	sealed := func(fams map[string]core.FamilyResidency) [4]int64 {
		bm25, vec := fams["bm25"], fams["vector"]
		return [4]int64{bm25.HeapBytes - bm25.TailBytes, int64(bm25.Segments), int64(bm25.DeltaDocs), int64(vec.DeltaDocs)}
	}
	if got := reopened.Pipeline().Indexer().IndexStats(); sealed(got.Families) != sealed(after.Families) {
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
		if len(head) < 4 || string(head[:4]) != binfmt.FileMagic {
			t.Errorf("%s: not a binfmt container file (head %q)", filepath.Base(p), head[:min(4, len(head))])
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

// rewriteAsFormat2 rewrites the BM25 index files under dir in the layout of
// snapshot format 2: IDs as a plain string column (in the order they are
// stored) with an idsort column of ordinals sorted by ID beside it, every
// other section as it is.
func rewriteAsFormat2(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "bm25-*.idx"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bm25 index files: %v", err)
	}
	for _, path := range files {
		r, err := binfmt.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		col, err := r.FrontCoded("ids")
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		var idsort []uint32
		for i, id := range col.All() {
			ids = append(ids, string(id))
			idsort = append(idsort, uint32(i))
		}
		w := binfmt.NewWriter()
		for _, name := range []string{"meta", "ids", "lengths", "idsort", "terms", "df", "postoff", "postings"} {
			switch name {
			case "ids":
				w.Strings(name, ids)
			case "idsort":
				w.Uint32s(name, idsort)
			default:
				b, err := r.Bytes(name)
				if err != nil {
					t.Fatal(err)
				}
				w.Section(name, b)
			}
		}
		writeContainerFile(t, path, w)
	}
}

// writeContainerFile writes the container w holds to path as the container
// file an index file is.
func writeContainerFile(t *testing.T, path string, w *binfmt.Writer) {
	t.Helper()
	r, err := w.Build()
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

// setSnapshotFormat rewrites the meta.json under dir to name snapshot
// format in place of the one this build writes.
func setSnapshotFormat(t *testing.T, dir string, format int) {
	t.Helper()
	path := filepath.Join(dir, "meta.json")
	meta, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	older := bytes.Replace(meta, []byte(`"format": 6,`), []byte(fmt.Sprintf(`"format": %d,`, format)), 1)
	if bytes.Equal(older, meta) {
		t.Fatalf("%s is not at snapshot format 6: %s", path, meta)
	}
	if err := os.WriteFile(path, older, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFormatSnapshotRebuilds pins the ways a checkpointed index
// shard can be unusable. A shard that does not start with the binfmt
// container file magic was written by a release older than the container
// format, and a
// directory whose fingerprint names no vector row format by one whose flat
// shards held float32 rows, one with "shards": 4 by one whose indexes were
// hash-sharded, one at snapshot format 3, 2 or 1 by one that held vector
// files, whose IDs were plain or whose postings were int32 pairs: indexes
// are derived data, so recovery re-indexes from the catalog and verdicts
// match a fresh build. A vector file an older release left beside the
// BM25 shards is not read. A shard that IS a container but has a flipped
// byte is corruption, and Open must fail instead of rebuilding over a bad
// disk.
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

	// verifiesAsFresh opens tree and verifies against it; opened says
	// whether the BM25 files must have been opened and the vector indexes
	// derived from them (else re-indexed).
	verifiesAsFresh := func(t *testing.T, tree string, opened bool) {
		t.Helper()
		recovered, err := Open(tree, durableOpts(1))
		if err != nil {
			t.Fatalf("the directory did not open: %v", err)
		}
		defer recovered.Close()
		if st := recovered.Pipeline().Indexer().IndexStats(); (st.DeriveMS != 0) != opened {
			t.Errorf("BM25 files opened: %+v, want opened %v", st, opened)
		}
		got, err := recovered.VerifyClaim("q", workload.GolfClaim())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("report differs from a fresh build:\n got %+v\nwant %+v", got, want)
		}
	}

	t.Run("bm25 shard in an older encoding", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		overwriteShard(stale, "bm25", func([]byte) []byte { return []byte("\x0e\xff\x81\x03\x01\x01\x08snapshot") })
		verifiesAsFresh(t, stale, false)
	})

	// vectorFiles writes one vector file per kind beside the BM25 ones, as
	// the releases that stored vectors did.
	vectorFiles := func(t *testing.T, indexes string, content []byte) {
		t.Helper()
		shards, err := filepath.Glob(filepath.Join(indexes, "bm25-*.idx"))
		if err != nil || len(shards) == 0 {
			t.Fatalf("no checkpointed bm25 shards: %v", err)
		}
		for _, path := range shards {
			if err := os.WriteFile(strings.Replace(path, "bm25-", "vector-", 1), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("vector shard shorter than the magic", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		vectorFiles(t, filepath.Join(stale, "checkpoint", "indexes"), []byte("VA"))
		verifiesAsFresh(t, stale, true)
	})

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
			// Meta, ids, and every row as 128 floats.
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
			vectorFiles(t, indexes, buf.Bytes())
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
			verifiesAsFresh(t, stale, false)
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
			bw.Uint32s("lengths", []uint32{2})
			bw.Uint32s("idsort", []uint32{0})
			bw.Strings("terms", []string{"golf"})
			bw.Uint32s("postidx", []uint32{0, 1})
			bw.Uint32s("postings", []uint32{0, 2})
			writeContainerFile(t, path, bw)
		}
		// Under this build's format number the old shards are corruption,
		// and the open says so.
		if bad, err := Open(stale, durableOpts(1)); err == nil {
			bad.Close()
			t.Fatal("int32-postings shards opened under the current snapshot format")
		}
		setSnapshotFormat(t, indexes, 1)
		verifiesAsFresh(t, stale, false)
	})

	// A directory of snapshot format 2: every index file holds its IDs in a
	// plain string column, an idsort column beside it.
	t.Run("indexes at snapshot format 2", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		indexes := filepath.Join(stale, "checkpoint", "indexes")
		rewriteAsFormat2(t, indexes)
		if bad, err := Open(stale, durableOpts(1)); err == nil {
			bad.Close()
			t.Fatal("format-2 index files opened under the current snapshot format")
		}
		setSnapshotFormat(t, indexes, 2)
		verifiesAsFresh(t, stale, false)
	})

	// A directory of snapshot format 3: BM25 files this build could read,
	// beside vector files it no longer does. A snapshot has one format, so
	// the directory is re-indexed, not half read.
	t.Run("indexes at snapshot format 3", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale")
		copyTree(t, data, stale)
		indexes := filepath.Join(stale, "checkpoint", "indexes")
		vectorFiles(t, indexes, []byte(binfmt.Magic))
		setSnapshotFormat(t, indexes, 3)
		verifiesAsFresh(t, stale, false)
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
		verifiesAsFresh(t, stale, false)
	})

	corrupt := filepath.Join(dir, "corrupt")
	copyTree(t, data, corrupt)
	overwriteShard(corrupt, "bm25", func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw })
	if bad, err := Open(corrupt, durableOpts(1)); err == nil {
		bad.Close()
		t.Fatal("a corrupt binfmt shard opened without error")
	}
}
