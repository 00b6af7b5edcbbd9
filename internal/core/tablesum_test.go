package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/table"
)

// openBM25 returns every kind's BM25 index of the snapshot directory dir
// over ix's dictionary, by position in allKinds, with its postings
// transposed, as openIndexes builds them: the stored kinds' opened, the
// table kind's summed over lake's tables.
func openBM25(ix *Indexer, dir string, lake *datalake.Lake) ([]*invindex.Index, []*invindex.Transposed, error) {
	bm25s, trs, tables, err := ix.openStored(dir, lake.TableIDs(), lake.ResolveBorrowed)
	if err != nil {
		return nil, nil, err
	}
	bm25s[datalake.KindTable], trs[datalake.KindTable], err = tables.sum(ix.emb.Dict(), trs[datalake.KindTuple])
	return bm25s, trs, err
}

// edgeTables are the table shapes tableBags must sum as ingestion
// analyzes them: rows wider than the header, short and empty rows (which
// only a stored catalog holds), a header of stopwords alone, no columns,
// no rows, terms in both the header and the cells, and IDs holding the
// '#' a tuple's ID puts before its row number. prefix keeps IDs apart.
func edgeTables(prefix string) []*table.Table {
	return []*table.Table{
		{ID: prefix + "wide", Caption: "Wide rows of money", Columns: []string{"Player", "Money"},
			Rows: [][]string{{"tommy bolt", "570", "beyond the header", "1954"}, {"ed furgol", "6000"}, {"fred haas", "570", "Haas money"}}},
		{ID: prefix + "short", Caption: "short rows", Columns: []string{"a", "b", "c"},
			Rows: [][]string{{"palmer"}, nil, {"hogan", "hogan hogan"}, {}}},
		{ID: prefix + "headless", Caption: "the of", Rows: [][]string{{"only", "cells"}, nil, {"cells", "again"}}},
		{ID: prefix + "empty", Caption: "no rows yet", Columns: []string{"golf", "open"}},
		{ID: prefix + "bare"},
		{ID: prefix + "x", Caption: "x marks golf", Columns: []string{"golf"}, Rows: [][]string{{"a"}, {"golf golf"}, {"c"}}},
		{ID: prefix + "x#1", Caption: "x#1 open", Columns: []string{"open", "golf"}, Rows: [][]string{{"open", "1"}}},
		{ID: prefix + "x#1#0", Caption: "nested", Columns: []string{"k"}, Rows: [][]string{{"v"}, {"w", "extra"}}},
	}
}

// TestTableSegmentSummedFromTuples is the differential of the table kind's
// sum (tableBags): the BM25 segment an open sums from the tuple kind's
// documents and the catalog is, byte for byte as Frozen.Save writes it,
// the one the running table index folds at a checkpoint — the segment the
// table file held before the sum replaced it — so document order, IDs,
// lengths, df and postings all agree. It holds for a lake sealed only at
// its checkpoints and for one sealed every few writes, for a directory an
// indexer wrote after it was itself opened from one, and for a durable
// pin's indexes materialized from its files and view after the lake moved
// on, with verifies running throughout.
func TestTableSegmentSummedFromTuples(t *testing.T) {
	for _, every := range []int{0, 3} {
		t.Run(fmt.Sprintf("seal-every-%d", every), func(t *testing.T) { tableSumDifferential(t, every) })
	}
}

func tableSumDifferential(t *testing.T, every int) {
	var items []datalake.BatchItem
	for _, tb := range edgeTables("stored-") {
		items = append(items, datalake.BatchItem{Table: tb})
	}
	lake, err := datalake.Load([]datalake.Source{{ID: "s", Name: "src", TrustPrior: 0.8}}, items)
	if err != nil {
		t.Fatal(err)
	}
	p := diffPipelineOn(t, lake)
	cfg := p.indexer.cfg
	saved := func(z *invindex.Frozen) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := z.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// summed is the table kind's segment an open of dir sums over lake.
	summed := func(lake *datalake.Lake, dir string) []byte {
		t.Helper()
		bm25s, _, err := openBM25(newIndexer(nil, &cfg), dir, lake)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		return saved(bm25s[datalake.KindTable].Freeze())
	}

	// Verifies and retrievals run throughout, so the race detector sees
	// them beside the writes, checkpoints, pins and opens.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := claimAbout("q", "golf open prize money palmer")
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := p.Verify(g); err != nil {
					t.Errorf("concurrent verify: %v", err)
					return
				}
				p.indexer.Retrieve(g.Query(), 10)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	r := rand.New(rand.NewSource(21))
	root := t.TempDir()
	pinDir := filepath.Join(root, "pin")
	var pinView *datalake.View
	var pinWant []byte
	checkpoints := 0
	for step := 0; step < 80; step++ {
		if err := seededWrite(lake, r, step); err != nil {
			t.Fatal(err)
		}
		if step%10 == 5 {
			// Wide rows are the one edge a live write can carry.
			if err := lake.AddTable(edgeTables(fmt.Sprint("live", step, "-"))[0]); err != nil {
				t.Fatal(err)
			}
		}
		if every > 0 && step%every == every-1 {
			if _, err := lake.Fork(nil); err != nil {
				t.Fatal(err)
			}
		}
		switch step % 20 {
		case 9:
			if pinView != nil {
				continue
			}
			snap, err := p.PinSnapshot(func(view *datalake.View, writeIndexes func(faultfs.FS, string) error, _ map[string]float64) error {
				pinView = view
				return writeIndexes(faultfs.OS, pinDir)
			})
			if err != nil {
				t.Fatal(err)
			}
			pinWant = saved(snap.Payload().(*PinnedSnapshot).frozen.BM25(datalake.KindTable))
		case 19:
			dir := filepath.Join(root, fmt.Sprint(step))
			checkpointInto(t, p, dir)
			checkpoints++
			want := saved(p.indexer.bm25[datalake.KindTable].Freeze())
			if got := summed(lake, dir); !bytes.Equal(got, want) {
				t.Fatalf("step %d: the summed table segment (%d bytes) differs from the folded one (%d bytes)", step, len(got), len(want))
			}
			reopened, err := BuildIndexerFromSnapshot(lake, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			again := dir + "-reopened"
			if err := lake.Quiesce(func(v uint64) error { return reopened.Freeze().Save(faultfs.OS, again, v) }); err != nil {
				t.Fatal(err)
			}
			reopened.Close()
			if got := summed(lake, again); !bytes.Equal(got, want) {
				t.Fatalf("step %d: the table segment summed from a reopened indexer's directory differs from the folded one", step)
			}
		}
	}
	if checkpoints == 0 || pinView == nil || pinView.Version() == lake.Version() {
		t.Fatalf("%d checkpoints, pin %v: the test does not exercise a reopened pin", checkpoints, pinView)
	}
	ps := &PinnedSnapshot{view: pinView, dir: filepath.Join(pinDir, "indexes")}
	if err := ps.materialize(p.indexer, p.snapshotRebuilt); err != nil {
		t.Fatal(err)
	}
	if got := saved(ps.bm25[datalake.KindTable].Freeze()); !bytes.Equal(got, pinWant) {
		t.Fatalf("the pin's summed table segment differs from the one frozen at the pin")
	}
}

// TestTableSumRejectsForeignTuples: a tuple index that is not exactly the
// catalog's rows fails the open loudly instead of summing wrong tables.
func TestTableSumRejectsForeignTuples(t *testing.T) {
	p := seededPipeline(t, 40)
	dir := t.TempDir()
	checkpointInto(t, p, dir)
	other := diffPipeline(t)
	if err := other.lake.AddTable(edgeTables("")[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openBM25(newIndexer(nil, &p.indexer.cfg), dir, other.lake); err == nil {
		t.Fatal("a tuple index summed over another lake's tables")
	}
}
