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
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
)

// checkpointInto does to p what a durable checkpoint does: fork, seal and
// retain the capture as a snapshot, write it into dir.
func checkpointInto(t *testing.T, p *Pipeline, dir string) uint64 {
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
	return view.Version()
}

// diffPipeline assembles an empty lake, an indexer and a pipeline with no
// result cache and no lineage store, so every verify searches and two
// pipelines fed the same writes report identically.
func diffPipeline(t *testing.T) *Pipeline {
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

var seedWords = strings.Fields("golf open prize palmer hogan dover kansas climate record july total money league season harbor")

// seededWrite applies the step-th write of the seeded sequence to lake:
// mostly triples about a dozen subjects, so entity pages are re-indexed
// (deleted and re-added) across base and delta; otherwise a table or a
// document.
func seededWrite(lake *datalake.Lake, r *rand.Rand, step int) error {
	word := func() string { return seedWords[r.Intn(len(seedWords))] }
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
// takes snapshots and checkpoints along the way and to one that never
// does, with verifies and retrievals running against the first throughout,
// and requires after every step the same raw hits (scores included) and
// the same Report from both — and, from the first, the same Report at
// every retained version as the reference gave when that version was head,
// and from an indexer opened on each checkpoint's files the reference's
// hits at that step. Each checkpoint directory is removed once the next
// is written, as a checkpoint swap unlinks it. With every > 0 the first pipeline's
// lake also forks (and so seals its tail and the indexes' deltas into
// segments) after every every-th write, so its indexes search lists of
// segments.
func sealAdoptDifferential(t *testing.T, steps, every int) {
	ref, sut := diffPipeline(t), diffPipeline(t)
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
		if err := seededWrite(ref.lake, rRef, step); err != nil {
			t.Fatal(err)
		}
		if err := seededWrite(sut.lake, rSut, step); err != nil {
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
			pinned[checkpointInto(t, sut, dir)] = reports
			reopened, err := BuildIndexerFromSnapshot(sut.lake, sut.indexer.cfg, dir)
			if err != nil {
				t.Fatalf("step %d: the checkpoint does not open: %v", step, err)
			}
			for _, g := range objects {
				want := ref.indexer.search(context.Background(), g.Query(), 10, nil, true, true)
				if got := reopened.search(context.Background(), g.Query(), 10, nil, true, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d %s: the reopened checkpoint's hits differ\n got  %+v\n want %+v", step, g.ID, got, want)
				}
			}
			reopened.Close()
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
}

func TestSealAdoptDifferential(t *testing.T) {
	sealAdoptDifferential(t, 120, 0)
	for _, every := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("seal-every-%d", every), func(t *testing.T) { sealAdoptDifferential(t, 120, every) })
	}
}

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously, so a snapshot or live index left viewing a
// released segment faults.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t, 60, 7)
}

// seededPipeline is diffPipeline after n writes of the seeded sequence.
func seededPipeline(t *testing.T, n int) *Pipeline {
	t.Helper()
	p := diffPipeline(t)
	r := rand.New(rand.NewSource(5))
	for step := 0; step < n; step++ {
		if err := seededWrite(p.lake, r, step); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestSealAdoptPinnedReadOutlivesLaterCheckpoints: a read at version v
// answers byte-identically after two later checkpoints have each replaced
// and unlinked the files before them, with collections forced in between
// — v's segments stay alive for as long as v is retained.
func TestSealAdoptPinnedReadOutlivesLaterCheckpoints(t *testing.T) {
	p := seededPipeline(t, 80)
	g := claimAbout("q", "golf open prize money palmer")
	root := t.TempDir()
	v := checkpointInto(t, p, filepath.Join(root, "a"))
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
			if err := seededWrite(p.lake, r, 1000+100*i+step); err != nil {
				t.Fatal(err)
			}
		}
		checkpointInto(t, p, filepath.Join(root, name))
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

// TestRetainedCheckpointsHoldNoIndexHeap: eight checkpoints of a 5k-document
// lake, one small write apart so each is retained as a snapshot of its own
// and the text index is re-sealed every time, add under 1 MB of heap each:
// a retained checkpoint holds references to the sealed segments, which sit
// off the Go heap, not a copy.
func TestRetainedCheckpointsHoldNoIndexHeap(t *testing.T) {
	p := diffPipeline(t)
	var items []datalake.BatchItem
	for i := 0; i < 5000; i++ {
		items = append(items, datalake.BatchItem{Doc: &doc.Document{ID: fmt.Sprintf("doc%04d", i), Title: seedWords[i%len(seedWords)], SourceID: "s",
			Text: fmt.Sprintf("%s %s report number %d about %s", seedWords[i%7], seedWords[i%11], i, seedWords[i%13])}})
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
	checkpointInto(t, p, filepath.Join(root, "0"))
	before := heap()
	for i := 1; i <= 8; i++ {
		if err := p.lake.AddDocument(&doc.Document{ID: fmt.Sprintf("late%d", i), Text: "one more report", SourceID: "s"}); err != nil {
			t.Fatal(err)
		}
		checkpointInto(t, p, filepath.Join(root, fmt.Sprint(i)))
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
	checkpointInto(t, p, dir)
	reopened, err := BuildIndexerFromSnapshot(p.lake, p.indexer.cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, want := p.indexer.IndexStats().Families, reopened.IndexStats().Families
	if !reflect.DeepEqual(got, want) {
		t.Errorf("residency differs:\n checkpointed %+v\n reopened     %+v", got, want)
	}
	if want[familyBM25].HeapBytes == 0 || want[familyBM25].DeltaDocs != 0 || want[familyVector].DeltaDocs != 0 {
		t.Errorf("a reopened indexer holds no BM25 segment, or a delta: %+v", want)
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
// checkpoint's files (its BM25 segments inflated from them, its int8
// vector segments derived from those) is sealed and saved into a second
// directory; the first directory is unlinked and the collector run. The
// indexer, and one opened on the second directory, must answer as the one
// that never left memory does, before and after further writes.
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
				if err := seededWrite(lake, r, step); err != nil {
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
		if err := reopened.Freeze().Save(faultfs.OS, second, lake.Version()); err != nil {
			t.Fatal(err)
		}
		again, err := BuildIndexerFromSnapshot(lake, cfg, second)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if err := os.RemoveAll(first); err != nil {
			t.Fatal(err)
		}
		agree := func(when string) {
			for i := 0; i < 5; i++ {
				runtime.GC()
				time.Sleep(5 * time.Millisecond)
			}
			for _, q := range []string{"golf open prize money palmer", "dover kansas climate record july", "entity 3 league season"} {
				want := built.search(context.Background(), q, 10, nil, true, true)
				for name, ix := range map[string]*Indexer{"reopened": reopened, "opened on its checkpoint": again} {
					if got := ix.search(context.Background(), q, 10, nil, true, true); !reflect.DeepEqual(got, want) {
						t.Errorf("%s, %s, %q:\n got  %+v\n want %+v", when, name, q, got, want)
					}
				}
			}
		}
		agree("after the checkpoint")
		write(120, 150)
		agree("after further writes")
	})
}
