package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/faultfs"
	"repro/internal/kg"
	"repro/internal/table"
	"repro/internal/wal"
)

// The crash-consistency suite: run a deterministic ingest → checkpoint →
// ingest workload over a fault-injecting filesystem that kills the
// process at an exact write/rename/fsync operation, then recover the
// directory with a clean filesystem and assert the two invariants the
// durability protocol promises at EVERY kill point:
//
//  1. no lost acknowledged write — every mutation whose ingest call
//     returned nil before the crash is present after recovery;
//  2. prefix consistency — the recovered lake is exactly the first K
//     mutations of the workload for some K >= the acknowledged count
//     (a crash may persist a write it never acknowledged, but can never
//     skip one or reorder them), with Version() == K.
//
// The exhaustive sweep kills at operation 1, 2, 3, ... until the workload
// completes without reaching the kill point, so every fault site the
// protocol has — WAL appends and fsyncs, segment creates and rotations,
// checkpoint catalog and index-shard writes, META writes, tree syncs, the
// two swap renames, segment truncations — is exercised, with every third point tearing the write at
// the kill instead of dropping it. The randomized variant throws random
// kill points (and torn-ness) at a longer mixed-modality workload with
// two checkpoints.

// crashIndexerConfig sizes the indexer the sweeps checkpoint with: every
// kind in both families (eight shard files and a meta.json per
// checkpoint), small vectors.
var crashIndexerConfig = func() core.IndexerConfig {
	cfg := core.DefaultIndexerConfig(1)
	cfg.EmbedDim = 8
	return cfg
}()

// indexFreeze is the FreezeFunc verifai.Checkpoint passes, over ix: seal
// in the fork, write the shards through the store's filesystem.
func indexFreeze(ix *core.Indexer) FreezeFunc {
	return func(v *datalake.View) (WriteFunc, error) {
		fz := ix.Freeze()
		return func(fs faultfs.FS, dir string) error {
			return fz.Save(fs, filepath.Join(dir, "indexes"), v.Version())
		}, nil
	}
}

// crashMutation is one workload step plus its recovery predicate.
type crashMutation struct {
	ingest func(l *datalake.Lake) error
	check  func(l *datalake.Lake) bool
}

// docMutation builds a document ingest step.
func docMutation(seq int) crashMutation {
	id := fmt.Sprintf("doc-%04d", seq)
	return crashMutation{
		ingest: func(l *datalake.Lake) error {
			return l.AddDocument(&doc.Document{ID: id, Title: "t", Text: fmt.Sprintf("body of %s", id)})
		},
		check: func(l *datalake.Lake) bool { _, ok := l.Document(id); return ok },
	}
}

// tableMutation builds a table ingest step.
func tableMutation(seq int) crashMutation {
	id := fmt.Sprintf("tbl-%04d", seq)
	return crashMutation{
		ingest: func(l *datalake.Lake) error {
			tb := table.New(id, "caption "+id, []string{"a", "b"})
			tb.MustAppendRow(fmt.Sprintf("%d", seq), "x")
			return l.AddTable(tb)
		},
		check: func(l *datalake.Lake) bool { _, ok := l.Table(id); return ok },
	}
}

// tripleMutation builds a knowledge-graph ingest step.
func tripleMutation(seq int) crashMutation {
	subj := fmt.Sprintf("ent-%04d", seq)
	obj := fmt.Sprintf("obj-%04d", seq)
	return crashMutation{
		ingest: func(l *datalake.Lake) error {
			return l.AddTriple(kg.Triple{Subject: subj, Predicate: "linked to", Object: obj})
		},
		check: func(l *datalake.Lake) bool {
			got := l.Graph().Lookup(subj, "linked to")
			return len(got) == 1 && got[0] == obj
		},
	}
}

// docWorkload is the exhaustive sweep's workload: documents only, so the
// operation sequence is fully deterministic run to run.
func docWorkload(n int) []crashMutation {
	muts := make([]crashMutation, n)
	for i := range muts {
		muts[i] = docMutation(i)
	}
	return muts
}

// mixedWorkload interleaves all three modalities deterministically.
func mixedWorkload(n int) []crashMutation {
	muts := make([]crashMutation, n)
	for i := range muts {
		switch i % 3 {
		case 0:
			muts[i] = docMutation(i)
		case 1:
			muts[i] = tableMutation(i)
		default:
			muts[i] = tripleMutation(i)
		}
	}
	return muts
}

// runCrashAttempt executes the workload against dir through ffs,
// checkpointing (catalog and index shards) after each index in ckptAfter,
// and returns how many mutations were acknowledged and whether the source
// registration was. Any failure after the kill point is expected; a
// failure with the filesystem healthy is a real bug and fails the test.
func runCrashAttempt(t *testing.T, dir string, ffs *faultfs.Faulty, muts []crashMutation, ckptAfter map[int]bool) (acked int, srcAcked bool) {
	t.Helper()
	bail := func(stage string, err error) {
		if !ffs.Crashed() {
			t.Fatalf("%s failed without a crash: %v", stage, err)
		}
	}
	st, err := Open(dir, Options{Sync: wal.SyncAlways, segmentBytes: 2048, FS: ffs})
	if err != nil {
		bail("Open", err)
		return 0, false
	}
	defer func() {
		st.Lake().Close()
		st.Close()
	}()
	ix, err := core.BuildIndexer(st.Lake(), crashIndexerConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := st.ReplayTail(); err != nil {
		bail("ReplayTail", err)
		return 0, false
	}
	st.Arm()
	if err := st.Lake().AddSource(datalake.Source{ID: "src", Name: "crash suite", TrustPrior: 0.7}); err != nil {
		bail("AddSource", err)
		return 0, false
	}
	srcAcked = true
	for i, m := range muts {
		if ckptAfter[i] {
			if _, err := st.Checkpoint(indexFreeze(ix)); err != nil {
				bail("Checkpoint", err)
				// A failed checkpoint loses nothing; keep ingesting (the
				// attempts fail fast once the log is poisoned).
			}
		}
		if err := m.ingest(st.Lake()); err != nil {
			bail("ingest", err)
			return acked, srcAcked
		}
		acked = i + 1
	}
	return acked, srcAcked
}

// verifyCrashRecovery recovers dir with a healthy filesystem and asserts
// the two invariants.
func verifyCrashRecovery(t *testing.T, dir string, kill int64, muts []crashMutation, acked int, srcAcked bool) {
	t.Helper()
	st, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("kill %d: recovery Open failed: %v", kill, err)
	}
	defer func() {
		st.Lake().Close()
		st.Close()
	}()
	// A promoted checkpoint's shards always open: a kill inside a shard
	// write leaves it in checkpoint.tmp, which recovery never reads.
	if ix, err := core.BuildIndexerFromSnapshot(st.Lake(), crashIndexerConfig, st.IndexSnapshotDir()); err == nil {
		ix.Close()
	} else if !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Fatalf("kill %d: checkpointed index shards unreadable: %v", kill, err)
	}
	if err := st.ReplayTail(); err != nil {
		t.Fatalf("kill %d: recovery ReplayTail failed: %v", kill, err)
	}
	lake := st.Lake()
	k := lake.Version()
	if k < uint64(acked) {
		t.Fatalf("kill %d: recovered version %d < %d acknowledged writes (lost acks)", kill, k, acked)
	}
	if k > uint64(len(muts)) {
		t.Fatalf("kill %d: recovered version %d > %d attempted writes", kill, k, len(muts))
	}
	for i, m := range muts {
		present := m.check(lake)
		if uint64(i) < k && !present {
			t.Fatalf("kill %d: recovered at version %d but mutation %d is missing (hole in the prefix)", kill, k, i)
		}
		if uint64(i) >= k && present {
			t.Fatalf("kill %d: recovered at version %d but mutation %d is present (version understates state)", kill, k, i)
		}
	}
	if srcAcked {
		if _, ok := lake.Source("src"); !ok {
			t.Fatalf("kill %d: acknowledged source registration lost", kill)
		}
	}
	// The recovered store must accept writes at the right next version.
	st.Arm()
	v, err := lake.AddDocumentVersioned(&doc.Document{ID: "post-recovery", Text: "x"})
	if err != nil {
		t.Fatalf("kill %d: post-recovery ingest failed: %v", kill, err)
	}
	if v != k+1 {
		t.Fatalf("kill %d: post-recovery version %d, want %d", kill, v, k+1)
	}
}

// TestCrashConsistencyKillPoints sweeps the kill point across every
// mutating filesystem operation of an ingest → checkpoint → ingest
// workload (torn writes every third point), asserting recovery at each.
func TestCrashConsistencyKillPoints(t *testing.T) {
	muts := docWorkload(60)
	ckptAfter := map[int]bool{30: true}
	points := 0
	for kill := int64(1); ; kill++ {
		dir := t.TempDir()
		ffs := faultfs.New(nil)
		ffs.CrashAt(kill, kill%3 == 0)
		acked, srcAcked := runCrashAttempt(t, dir, ffs, muts, ckptAfter)
		if !ffs.Crashed() {
			// The workload ran out of operations before the kill point:
			// every fault site has been exercised.
			if acked != len(muts) {
				t.Fatalf("healthy run acknowledged %d/%d writes", acked, len(muts))
			}
			break
		}
		points++
		verifyCrashRecovery(t, dir, kill, muts, acked, srcAcked)
	}
	if points < 100 {
		t.Errorf("exercised %d crash points, want >= 100 (workload too small to cover the protocol)", points)
	}
	t.Logf("verified recovery at %d distinct crash points", points)
}

// pinSchedule is the deterministic pin workload for the snapshot-manifest
// crash sweep: ingest docs one at a time, persist a pin every pinEvery
// docs, and drop the oldest acked pin at each index in dropAt.
const pinWorkloadDocs = 24

// runPinCrashAttempt drives the pin workload over ffs: it returns the doc
// count acked, the pins whose PersistPin returned nil and were not
// acked-dropped, and the pins whose DropPin returned nil. Failures are
// tolerated only after the injected crash.
func runPinCrashAttempt(t *testing.T, dir string, ffs *faultfs.Faulty) (ackedDocs int, ackedPins, droppedPins []uint64) {
	t.Helper()
	bail := func(stage string, err error) {
		if !ffs.Crashed() {
			t.Fatalf("%s failed without a crash: %v", stage, err)
		}
	}
	st, err := Open(dir, Options{Sync: wal.SyncAlways, segmentBytes: 2048, FS: ffs})
	if err != nil {
		bail("Open", err)
		return
	}
	defer func() {
		st.Lake().Close()
		st.Close()
	}()
	if err := st.ReplayTail(); err != nil {
		bail("ReplayTail", err)
		return
	}
	st.Arm()
	for i := 0; i < pinWorkloadDocs; i++ {
		m := docMutation(i)
		if err := m.ingest(st.Lake()); err != nil {
			bail("ingest", err)
			return
		}
		ackedDocs = i + 1
		if ackedDocs%4 == 0 {
			view, err := st.Lake().Fork(nil)
			if err != nil {
				bail("Fork", err)
				return
			}
			trust := map[string]float64{"src": 0.25}
			if err := st.PersistPin(view, nil, trust); err != nil {
				bail("PersistPin", err)
				return
			}
			ackedPins = append(ackedPins, view.Version())
		}
		if (i == 9 || i == 19) && len(ackedPins) > 0 {
			v := ackedPins[0]
			// Once DropPin is in flight the pin's fate is indeterminate (the
			// manifest rewrite may land before the crash), so it leaves the
			// acked set either way; only an acknowledged drop must stick.
			ackedPins = ackedPins[1:]
			if err := st.DropPin(v); err != nil {
				bail("DropPin", err)
				return
			}
			droppedPins = append(droppedPins, v)
		}
	}
	return
}

// verifyPinCrashRecovery recovers dir with a healthy filesystem and
// asserts the snapshot-manifest invariants at this kill point: the
// manifest is old-or-new, never torn (RecoverPins decodes it), every
// acknowledged still-held pin survives with a loadable catalog carrying
// exactly its version's doc prefix and its trust map, every acknowledged
// drop stays dropped, and unmanifested pin directories are swept.
func verifyPinCrashRecovery(t *testing.T, dir string, kill int64, ackedPins, droppedPins []uint64) {
	t.Helper()
	st, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("kill %d: recovery Open failed: %v", kill, err)
	}
	defer func() {
		st.Lake().Close()
		st.Close()
	}()
	recovered, err := st.RecoverPins()
	if err != nil {
		t.Fatalf("kill %d: RecoverPins failed (torn manifest?): %v", kill, err)
	}
	byVersion := make(map[uint64]RecoveredPin, len(recovered))
	for _, p := range recovered {
		byVersion[p.Version] = p
	}
	for _, v := range ackedPins {
		if _, ok := byVersion[v]; !ok {
			t.Fatalf("kill %d: acknowledged pin %d lost from the manifest", kill, v)
		}
	}
	for _, v := range droppedPins {
		if _, ok := byVersion[v]; ok {
			t.Fatalf("kill %d: acknowledged drop of pin %d resurrected", kill, v)
		}
	}
	// Every manifested pin — acknowledged or landed-but-unacked — must be
	// one the workload actually attempted (a multiple of 4) and must
	// resolve completely: trust map intact, catalog loadable, carrying
	// exactly the doc prefix of its version.
	for v, p := range byVersion {
		if v == 0 || v%4 != 0 || v > pinWorkloadDocs {
			t.Fatalf("kill %d: recovered pin at never-attempted version %d", kill, v)
		}
		if p.Trust["src"] != 0.25 {
			t.Fatalf("kill %d: pin %d recovered trust %v, want src=0.25", kill, v, p.Trust)
		}
		pinLake, err := st.LoadCatalog(p.Dir)
		if err != nil {
			t.Fatalf("kill %d: pin %d catalog unloadable: %v", kill, v, err)
		}
		for i := 0; i < pinWorkloadDocs; i++ {
			_, present := pinLake.Document(fmt.Sprintf("doc-%04d", i))
			if want := uint64(i) < v; present != want {
				t.Fatalf("kill %d: pin %d catalog doc %d present=%v, want %v", kill, v, i, present, want)
			}
		}
		pinLake.Close()
	}
	// RecoverPins swept everything the manifest does not list: only
	// manifested pin directories remain on disk.
	entries, err := os.ReadDir(st.SnapshotsDir())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("kill %d: read snapshots dir: %v", kill, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		v, err := strconv.ParseUint(e.Name(), 10, 64)
		if err != nil {
			t.Fatalf("kill %d: unswept non-pin directory %q", kill, e.Name())
		}
		if _, ok := byVersion[v]; !ok {
			t.Fatalf("kill %d: unswept orphan pin directory %q", kill, e.Name())
		}
	}
}

// TestCrashConsistencyPinKillPoints sweeps the kill point across every
// mutating filesystem operation of the ingest → pin → drop workload
// (torn writes every third point): at each, recovery must see the old or
// the new manifest — never a torn one — with every acknowledged pin
// resolvable and every orphan directory swept.
func TestCrashConsistencyPinKillPoints(t *testing.T) {
	points := 0
	for kill := int64(1); ; kill++ {
		dir := t.TempDir()
		ffs := faultfs.New(nil)
		ffs.CrashAt(kill, kill%3 == 0)
		ackedDocs, ackedPins, droppedPins := runPinCrashAttempt(t, dir, ffs)
		if !ffs.Crashed() {
			if ackedDocs != pinWorkloadDocs {
				t.Fatalf("healthy run acknowledged %d/%d writes", ackedDocs, pinWorkloadDocs)
			}
			break
		}
		points++
		verifyPinCrashRecovery(t, dir, kill, ackedPins, droppedPins)
	}
	if points < 100 {
		t.Errorf("exercised %d crash points, want >= 100 (workload too small to cover the pin protocol)", points)
	}
	t.Logf("verified pin recovery at %d distinct crash points", points)
}

// TestCrashConsistencyRandomized throws random kill points (random
// torn-ness) at a longer mixed-modality workload with two checkpoints.
func TestCrashConsistencyRandomized(t *testing.T) {
	muts := mixedWorkload(90)
	ckptAfter := map[int]bool{25: true, 70: true}

	// Dry run to learn the healthy operation count.
	probe := faultfs.New(nil)
	if acked, _ := runCrashAttempt(t, t.TempDir(), probe, muts, ckptAfter); acked != len(muts) {
		t.Fatalf("dry run acknowledged %d/%d writes", acked, len(muts))
	}
	total := probe.Ops()
	if total < 100 {
		t.Fatalf("workload produced only %d mutating ops", total)
	}

	rng := rand.New(rand.NewSource(7))
	attempts := 30
	if testing.Short() {
		attempts = 8
	}
	for i := 0; i < attempts; i++ {
		kill := 1 + rng.Int63n(total)
		torn := rng.Intn(2) == 0
		dir := t.TempDir()
		ffs := faultfs.New(nil)
		ffs.CrashAt(kill, torn)
		acked, srcAcked := runCrashAttempt(t, dir, ffs, muts, ckptAfter)
		if !ffs.Crashed() {
			t.Fatalf("kill %d <= %d ops never hit", kill, total)
		}
		verifyCrashRecovery(t, dir, kill, muts, acked, srcAcked)
	}
}

// upgradeFixture is a data directory a format-6 build wrote: its head
// checkpoint holds the catalog at catalog format 2 and the BM25 files at
// snapshot format 6.
var upgradeFixture = filepath.Join("..", "..", "testdata", "format6", "data")

// runUpgradeAttempt opens dir through ffs and takes the checkpoint that
// upgrades its stale head, as verifai.Open does: the head re-indexed, then
// checkpointed. Failures are tolerated only after the injected crash.
func runUpgradeAttempt(t *testing.T, dir string, ffs *faultfs.Faulty) {
	t.Helper()
	st, err := Open(dir, Options{Sync: wal.SyncAlways, FS: ffs})
	if err != nil {
		if !ffs.Crashed() {
			t.Fatalf("Open failed without a crash: %v", err)
		}
		return
	}
	defer func() {
		st.Lake().Close()
		st.Close()
	}()
	if !st.StaleCatalog() {
		t.Fatal("the fixture's head catalog is not stale")
	}
	cfg := core.DefaultIndexerConfig(1)
	if _, err := core.BuildIndexerFromSnapshot(st.Lake(), cfg, st.IndexSnapshotDir()); !errors.Is(err, core.ErrStaleFormat) {
		t.Fatalf("the fixture's index files open as %v, want a stale format", err)
	}
	ix, err := core.BuildIndexer(st.Lake(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := st.ReplayTail(); err != nil {
		if !ffs.Crashed() {
			t.Fatalf("ReplayTail failed without a crash: %v", err)
		}
		return
	}
	st.Arm()
	if _, err := st.Checkpoint(indexFreeze(ix)); err != nil && !ffs.Crashed() {
		t.Fatalf("Checkpoint failed without a crash: %v", err)
	}
}

// checkpointFormats returns the catalog format and the snapshot format of
// dir's head checkpoint.
func checkpointFormats(t *testing.T, dir string) (catalog, snapshot int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint", catalogFile))
	if err != nil {
		t.Fatal(err)
	}
	r, err := binfmt.NewReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.JSON("format", &catalog); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "checkpoint", "indexes", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Format int }
	if err := json.Unmarshal(meta, &m); err != nil {
		t.Fatal(err)
	}
	return catalog, m.Format
}

// TestUpgradeCheckpointKillPoints sweeps the kill point across every
// mutating filesystem operation of the open that upgrades a stale head
// (torn writes every third point): every kill leaves the old checkpoint
// (catalog format 2, snapshot format 6) or the new one (catalog format 3,
// snapshot format 7), never neither, and either holds the fixture's
// catalog at its version.
func TestUpgradeCheckpointKillPoints(t *testing.T) {
	want := openStore(t, copyOf(t, upgradeFixture), Options{Sync: wal.SyncNone})
	wantView := forkOf(t, want.Lake())
	want.Lake().Close()
	want.Close()
	seen := map[[2]int]int{}
	for kill := int64(1); ; kill++ {
		dir := copyOf(t, upgradeFixture)
		ffs := faultfs.New(nil)
		ffs.CrashAt(kill, kill%3 == 0)
		runUpgradeAttempt(t, dir, ffs)
		st := openStore(t, dir, Options{Sync: wal.SyncNone})
		if diff := sameCatalog(forkOf(t, st.Lake()), wantView); diff != "" || st.Lake().Version() != wantView.Version() {
			t.Fatalf("kill %d: recovered at version %d (%s), want the fixture's at %d", kill, st.Lake().Version(), diff, wantView.Version())
		}
		st.Lake().Close()
		st.Close()
		formats := [2]int{}
		formats[0], formats[1] = checkpointFormats(t, dir)
		if formats != [2]int{2, 6} && formats != [2]int{catalogFormat, 7} {
			t.Fatalf("kill %d: the head checkpoint holds catalog format %d beside snapshot format %d", kill, formats[0], formats[1])
		}
		seen[formats]++
		if !ffs.Crashed() {
			if formats[0] != catalogFormat {
				t.Fatalf("the open ran to its end and left catalog format %d", formats[0])
			}
			break
		}
	}
	if seen[[2]int{2, 6}] < 10 || seen[[2]int{catalogFormat, 7}] < 2 {
		t.Errorf("kills left the old checkpoint %d times and the new one %d: the sweep does not cross the upgrade", seen[[2]int{2, 6}], seen[[2]int{catalogFormat, 7}])
	}
	t.Logf("kill points: %v", seen)
}

// copyOf copies the directory src into a fresh temporary directory.
func copyOf(t *testing.T, src string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	copyDir(t, src, dir)
	return dir
}
