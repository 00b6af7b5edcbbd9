package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/faultfs"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
)

// checkpointAdopt does to p what a durable checkpoint does: fork, seal
// and retain the capture as a snapshot, write it into dir, adopt dir.
func checkpointAdopt(t *testing.T, p *Pipeline, dir string) uint64 {
	t.Helper()
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterSnapshot(view, fz, false)
	if err := fz.Save(faultfs.OS, dir, view.Version()); err != nil {
		t.Fatal(err)
	}
	fz.Adopt(dir)
	return view.Version()
}

// adoptPipeline assembles an empty lake, an indexer and a pipeline with no result cache and no lineage store, so every verify
// searches and two pipelines fed the same writes report identically.
func adoptPipeline(t *testing.T) *Pipeline {
	t.Helper()
	lake := datalake.New()
	if err := lake.AddSource(datalake.Source{ID: "s", Name: "src", TrustPrior: 0.8}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultIndexerConfig(3)
	cfg.EmbedDim = 32
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetMetrics(obs.NewRegistry()) // adoptions are counted there
	pcfg := DefaultPipelineConfig()
	pcfg.ResultCache, pcfg.SnapshotRetain, pcfg.TopK = 0, 64, 20
	p, err := NewPipeline(lake, ix, rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 64)),
		verify.NewAgent(verify.NewExactVerifier()), nil, nil, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		ix.Close()
		lake.Close()
	})
	return p
}

// sameReport is reflect.DeepEqual over two reports, ignoring the live
// graph handle entity evidence carries (each lake has its own, and a graph
// under concurrent readers never compares equal to an idle one).
func sameReport(a, b Report) bool {
	strip := func(r Report) Report {
		ev := append([]Evidence(nil), r.Evidence...)
		for i := range ev {
			ev[i].Instance.Graph = nil
		}
		r.Evidence = ev
		return r
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

var adoptWords = strings.Fields("golf open prize palmer hogan dover kansas climate record july total money league season harbor")

// adoptWrite applies the step-th write of the seeded sequence to lake:
// mostly triples about a dozen subjects, so entity pages are re-indexed
// (deleted and re-added) across base and delta; otherwise a table or a
// document.
func adoptWrite(lake *datalake.Lake, r *rand.Rand, step int) error {
	word := func() string { return adoptWords[r.Intn(len(adoptWords))] }
	switch k := r.Intn(4); k {
	case 0:
		tb := table.New(fmt.Sprintf("t%03d", step), fmt.Sprintf("%s %s results %d", word(), word(), step), []string{"player", "money"})
		tb.SourceID = "s"
		for i := 0; i < 3; i++ {
			tb.MustAppendRow(fmt.Sprintf("%s %s", word(), word()), fmt.Sprint(100+r.Intn(900)))
		}
		return lake.AddTable(tb)
	case 1:
		return lake.AddDocument(&doc.Document{ID: fmt.Sprintf("d%03d", step), Title: word() + " " + word(), SourceID: "s",
			Text: fmt.Sprintf("the %s %s was decided by %s in %s", word(), word(), word(), word())})
	default:
		return lake.AddTriple(kg.Triple{Subject: fmt.Sprintf("entity %d", r.Intn(12)), Predicate: word() + " of " + word(),
			Object: fmt.Sprintf("%s %d", word(), step), SourceID: "s"})
	}
}

// sealAdoptDifferential feeds one seeded write sequence to a pipeline that
// takes snapshots and checkpoints-with-adopt along the way and to one that
// never does, with verifies and retrievals running against the first
// throughout, and requires after every step the same raw hits (scores
// included) and the same Report from both — and, from the first, the same
// Report at every retained version as the reference gave when that version
// was head. Each checkpoint directory is removed once the next is adopted,
// as a checkpoint swap unlinks it. With every > 0 the first pipeline's
// lake also forks (and so seals its tail and the indexes' deltas into
// segments) after every every-th write, so its indexes search lists of
// segments.
func sealAdoptDifferential(t *testing.T, steps, every int) {
	ref, sut := adoptPipeline(t), adoptPipeline(t)
	rRef, rSut := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	objects := []verify.Generated{
		claimAbout("q1", "golf open prize money palmer"),
		claimAbout("q2", "dover kansas climate record july"),
		claimAbout("q3", "entity 3 league season total"),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				g := objects[i%len(objects)]
				if _, err := sut.Verify(g); err != nil {
					t.Errorf("concurrent verify: %v", err)
					return
				}
				sut.indexer.Retrieve(g.Query(), 10)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	pinned := map[uint64][]Report{}
	root, prevDir := t.TempDir(), ""
	for step := 0; step < steps; step++ {
		if err := adoptWrite(ref.lake, rRef, step); err != nil {
			t.Fatal(err)
		}
		if err := adoptWrite(sut.lake, rSut, step); err != nil {
			t.Fatal(err)
		}
		if every > 0 && step%every == every-1 {
			if _, err := sut.lake.Fork(nil); err != nil {
				t.Fatal(err)
			}
		}
		var reports []Report
		for _, g := range objects {
			want := ref.indexer.search(context.Background(), g.Query(), 10, nil, true, true)
			if got := sut.indexer.search(context.Background(), g.Query(), 10, nil, true, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s: hits differ\n got  %+v\n want %+v", step, g.ID, got, want)
			}
			wantRep, err := ref.Verify(g)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := sut.Verify(g)
			if err != nil {
				t.Fatal(err)
			}
			if !sameReport(gotRep, wantRep) {
				t.Fatalf("step %d %s: reports differ\n got  %+v\n want %+v", step, g.ID, gotRep, wantRep)
			}
			reports = append(reports, wantRep)
		}
		switch step % 20 {
		case 9: // a seal that no file ever backs
			snap, err := sut.PinSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			pinned[snap.Version()] = reports
		case 19:
			dir := filepath.Join(root, fmt.Sprint(step))
			pinned[checkpointAdopt(t, sut, dir)] = reports
			if prevDir != "" {
				os.RemoveAll(prevDir)
			}
			prevDir = dir
			runtime.GC()
		}
		if step%10 == 9 {
			for v, wants := range pinned {
				for i, g := range objects {
					got, err := sut.VerifyAsOf(g, v)
					if err != nil {
						t.Fatalf("step %d: as of %d: %v", step, v, err)
					}
					want := wants[i]
					want.AsOfVersion = v
					if !sameReport(got, want) {
						t.Fatalf("step %d %s as of %d: reports differ\n got  %+v\n want %+v", step, g.ID, v, got, want)
					}
				}
			}
		}
	}
	st := sut.indexer.IndexStats()
	if st.Adopted == 0 || st.Skipped != 0 {
		t.Errorf("adoptions: %d adopted, %d skipped", st.Adopted, st.Skipped)
	}
}

func TestSealAdoptDifferential(t *testing.T) {
	sealAdoptDifferential(t, 120, 0)
	for _, every := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("seal-every-%d", every), func(t *testing.T) { sealAdoptDifferential(t, 120, every) })
	}
}

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously, so a snapshot or live index left viewing a
// released mapping faults.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t, 60, 7)
}

// seededPipeline is adoptPipeline after n writes of the seeded sequence.
func seededPipeline(t *testing.T, n int) *Pipeline {
	t.Helper()
	p := adoptPipeline(t)
	r := rand.New(rand.NewSource(5))
	for step := 0; step < n; step++ {
		if err := adoptWrite(p.lake, r, step); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestSealAdoptPinnedReadOutlivesLaterCheckpoints: a read at version v
// answers byte-identically after two later checkpoints have each replaced
// and unlinked the files before them, with collections forced in between
// — v's segments stay mapped for as long as v is retained.
func TestSealAdoptPinnedReadOutlivesLaterCheckpoints(t *testing.T) {
	p := seededPipeline(t, 80)
	g := claimAbout("q", "golf open prize money palmer")
	root := t.TempDir()
	v := checkpointAdopt(t, p, filepath.Join(root, "a"))
	read := func() []byte {
		rep, err := p.VerifyAsOf(g, v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := read()
	r := rand.New(rand.NewSource(6))
	for i, name := range []string{"b", "c"} {
		for step := 0; step < 15; step++ {
			if err := adoptWrite(p.lake, r, 1000+100*i+step); err != nil {
				t.Fatal(err)
			}
		}
		checkpointAdopt(t, p, filepath.Join(root, name))
		if err := os.RemoveAll(filepath.Join(root, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		if got := read(); string(got) != string(want) {
			t.Fatalf("after checkpoint %s the read at %d changed:\n got  %s\n want %s", name, v, got, want)
		}
	}
}

// TestAdoptSkipsForeignShardFile: an index file that is not what the
// capture wrote is left alone and counted, and the index keeps answering
// from the heap.
func TestAdoptSkipsForeignShardFile(t *testing.T) {
	p := seededPipeline(t, 60)
	g := claimAbout("q", "dover kansas climate record july")
	want := p.indexer.search(context.Background(), g.Query(), 10, nil, true, true)

	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error { fz = p.indexer.Freeze(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := fz.Save(faultfs.OS, dir, view.Version()); err != nil {
		t.Fatal(err)
	}
	// One index gets another index's (valid) container, one a flipped byte.
	other, err := os.ReadFile(shardFile(dir, familyBM25, datalake.KindText))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardFile(dir, familyBM25, datalake.KindEntity), other, 0o644); err != nil {
		t.Fatal(err)
	}
	flipPath := shardFile(dir, familyBM25, datalake.KindTuple)
	data, err := os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01
	if err := os.WriteFile(flipPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fz.Adopt(dir)
	st := p.indexer.IndexStats()
	if files := uint64(len(p.indexer.cfg.Kinds)); st.Skipped != 2 || st.Adopted != files-2 {
		t.Errorf("adoptions: %d adopted, %d skipped; want %d and 2", st.Adopted, st.Skipped, files-2)
	}
	if st.Families[familyBM25].HeapBytes == 0 {
		t.Errorf("the skipped indexes are not on the heap: %+v", st.Families)
	}
	if got := p.indexer.search(context.Background(), g.Query(), 10, nil, true, true); !reflect.DeepEqual(got, want) {
		t.Errorf("hits changed:\n got  %+v\n want %+v", got, want)
	}
}

// TestRetainedCheckpointsHoldNoIndexHeap: eight checkpoints of a 5k-document
// lake, one small write apart so each is retained as a snapshot of its own
// and the text index is re-sealed every time, add under 1 MB of heap each:
// a retained checkpoint holds references to mapped segments, not a copy.
func TestRetainedCheckpointsHoldNoIndexHeap(t *testing.T) {
	p := adoptPipeline(t)
	var items []datalake.BatchItem
	for i := 0; i < 5000; i++ {
		items = append(items, datalake.BatchItem{Doc: &doc.Document{ID: fmt.Sprintf("doc%04d", i), Title: adoptWords[i%len(adoptWords)], SourceID: "s",
			Text: fmt.Sprintf("%s %s report number %d about %s", adoptWords[i%7], adoptWords[i%11], i, adoptWords[i%13])}})
	}
	if _, err := p.lake.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	root := t.TempDir()
	checkpointAdopt(t, p, filepath.Join(root, "0"))
	before := heap()
	for i := 1; i <= 8; i++ {
		if err := p.lake.AddDocument(&doc.Document{ID: fmt.Sprintf("late%d", i), Text: "one more report", SourceID: "s"}); err != nil {
			t.Fatal(err)
		}
		checkpointAdopt(t, p, filepath.Join(root, fmt.Sprint(i)))
		os.RemoveAll(filepath.Join(root, fmt.Sprint(i-1)))
		after := heap()
		if grew := int64(after) - int64(before); grew > 1<<20 {
			t.Errorf("checkpoint %d grew the heap by %d bytes", i, grew)
		}
		before = after
	}
	if n := len(p.Snapshots().List()); n != 9 {
		t.Fatalf("%d snapshots retained, want 9", n)
	}
}

// TestReopenedAndCheckpointedResidencyAgree: an indexer that built its
// indexes and then checkpointed sits where one opened from that
// checkpoint's files sits.
func TestReopenedAndCheckpointedResidencyAgree(t *testing.T) {
	p := seededPipeline(t, 100)
	dir := t.TempDir()
	checkpointAdopt(t, p, dir)
	reopened, err := BuildIndexerFromSnapshot(p.lake, p.indexer.cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, want := p.indexer.IndexStats().Families, reopened.IndexStats().Families
	if !reflect.DeepEqual(got, want) {
		t.Errorf("residency differs:\n checkpointed %+v\n reopened     %+v", got, want)
	}
	if want[familyBM25].HeapBytes != 0 || want[familyVector].MappedBytes != 0 || want[familyBM25].DeltaDocs != 0 || want[familyVector].DeltaDocs != 0 {
		t.Errorf("a reopened indexer holds BM25 bytes on the heap, vector files or a delta: %+v", want)
	}
}

// TestSnapshotSaveGoesThroughFS: every index file and meta.json is created
// and written through the filesystem Save is handed, so a fault-injecting
// one sees (and can kill) each of those operations.
func TestSnapshotSaveGoesThroughFS(t *testing.T) {
	p := seededPipeline(t, 40)
	fz := p.indexer.Freeze()
	files := len(p.indexer.cfg.Kinds)

	ffs := faultfs.New(faultfs.OS)
	if err := fz.Save(ffs, t.TempDir(), p.lake.Version()); err != nil {
		t.Fatal(err)
	}
	ops := ffs.Ops()
	if min := int64(2*files + 2); ops < min { // mkdir, a create and a write per index file, meta.json
		t.Fatalf("Save made %d operations through the filesystem, want at least %d", ops, min)
	}
	for _, kill := range []int64{2, ops / 2, ops} {
		ffs.CrashAt(kill, kill%2 == 0)
		if err := fz.Save(ffs, t.TempDir(), p.lake.Version()); !errors.Is(err, faultfs.ErrCrashed) {
			t.Errorf("kill at operation %d of %d: Save returned %v", kill, ops, err)
		}
	}
}

// TestAdoptAfterReopenEveryFamily is a restart followed by the first
// checkpoint, for both index families: an indexer opened from one
// checkpoint's files (its BM25 segments views of them, its int8 vector
// segments derived from those) is sealed, saved into a second directory
// and moved onto it; the first directory is unlinked and the collector run
// until its mappings are gone. The indexer must answer as the one that
// never left the heap does, before and after further writes.
func TestAdoptAfterReopenEveryFamily(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		lake := datalake.New()
		defer lake.Close()
		if err := lake.AddSource(datalake.Source{ID: "s", Name: "src", TrustPrior: 0.8}); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(5))
		write := func(from, to int) {
			for step := from; step < to; step++ {
				if err := adoptWrite(lake, r, step); err != nil {
					t.Fatal(err)
				}
			}
		}
		write(0, 120)
		cfg := DefaultIndexerConfig(3)
		cfg.EmbedDim = 32
		built, err := BuildIndexer(lake, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		first, second := filepath.Join(t.TempDir(), "first"), filepath.Join(t.TempDir(), "second")
		if err := built.Freeze().Save(faultfs.OS, first, lake.Version()); err != nil {
			t.Fatal(err)
		}
		reopened, err := BuildIndexerFromSnapshot(lake, cfg, first)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		reopened.SetMetrics(obs.NewRegistry())
		fz := reopened.Freeze()
		if err := fz.Save(faultfs.OS, second, lake.Version()); err != nil {
			t.Fatal(err)
		}
		fz.Adopt(second)
		if st := reopened.IndexStats(); st.Skipped != 0 || st.Families[familyBM25].HeapBytes != 0 {
			t.Fatalf("not adopted: %+v", st)
		}
		if err := os.RemoveAll(first); err != nil {
			t.Fatal(err)
		}
		agree := func(when string) {
			for i := 0; i < 5; i++ {
				runtime.GC()
				time.Sleep(5 * time.Millisecond)
			}
			for _, q := range []string{"golf open prize money palmer", "dover kansas climate record july", "entity 3 league season"} {
				got := reopened.search(context.Background(), q, 10, nil, true, true)
				want := built.search(context.Background(), q, 10, nil, true, true)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %q:\n got  %+v\n want %+v", when, q, got, want)
				}
			}
		}
		agree("after the adopt")
		write(120, 150)
		agree("after further writes")
	})
}
