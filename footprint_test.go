package verifai

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/workload"
)

// TestCheckpointFootprint: a checkpoint is a fixed, small number of files
// whatever the lake holds — one catalog container, the BM25 index shards,
// two metadata files — and the system reports that directory's size
// itself, in total and by part, in Durability() and in the scrape, before
// and after a restart; with nothing written since, the BM25 indexes hold
// exactly what their part of the directory inflates to, and the vector
// indexes, which have no part, hold the same bytes before and after.
func TestCheckpointFootprint(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 150, 75
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	var items []BatchItem
	for _, id := range corpus.Lake.TableIDs() {
		tb, _ := corpus.Lake.Table(id)
		items = append(items, BatchItem{Table: tb})
	}
	for _, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		items = append(items, BatchItem{Doc: d})
	}
	triples := corpus.Lake.Triples()
	for i := range triples {
		items = append(items, BatchItem{Triple: &triples[i]})
	}
	if len(items) < 300 || len(triples) == 0 {
		t.Fatalf("corpus of %d instances (%d triples) is too small for the test to mean anything", len(items), len(triples))
	}

	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.AddBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	files, size := 0, int64(0)
	err = filepath.WalkDir(filepath.Join(data, "checkpoint"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		files++
		size += info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files > 16 {
		t.Errorf("checkpoint of %d instances is %d files, want at most 16", len(items), files)
	}
	catalog, err := os.Stat(filepath.Join(data, "checkpoint", "catalog.vaib"))
	if err != nil {
		t.Fatal(err)
	}
	// What the BM25 files inflate to: the containers the indexes hold.
	shards, err := filepath.Glob(filepath.Join(data, "checkpoint", "indexes", "bm25-*.idx"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no BM25 files (%v)", err)
	}
	var inflated int64
	for _, path := range shards {
		r, err := binfmt.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inflated += r.Size()
	}
	var vectorBytes int64
	check := func(when string, sys *System) {
		t.Helper()
		ds, _ := sys.Durability()
		if ds.CheckpointFiles != files || ds.CheckpointBytes != size {
			t.Errorf("%s: Durability() reports %d files / %d bytes, the directory holds %d / %d",
				when, ds.CheckpointFiles, ds.CheckpointBytes, files, size)
		}
		var scrape bytes.Buffer
		if err := sys.Metrics().WritePrometheus(&scrape); err != nil {
			t.Fatal(err)
		}
		gauge := func(series string) int64 {
			t.Helper()
			_, rest, found := strings.Cut(scrape.String(), "\n"+series+" ")
			line, _, _ := strings.Cut(rest, "\n")
			v, err := strconv.ParseFloat(line, 64)
			if !found || err != nil {
				t.Errorf("%s: /metrics has %s %q", when, series, line)
			}
			return int64(v)
		}
		if v := gauge("verifai_checkpoint_bytes"); v != size {
			t.Errorf("%s: /metrics has verifai_checkpoint_bytes %d, the directory holds %d bytes", when, v, size)
		}
		// The parts split the directory: they sum to it, and the catalog
		// part is the catalog file.
		var sum int64
		for _, part := range []string{"catalog", "bm25", "meta"} {
			n := ds.CheckpointPartBytes[part]
			if n <= 0 {
				t.Errorf("%s: checkpoint part %q holds %d bytes", when, part, n)
			}
			if v := gauge(`verifai_checkpoint_part_bytes{part="` + part + `"}`); v != n {
				t.Errorf("%s: /metrics has %d bytes of part %q, Durability() %d", when, v, part, n)
			}
			sum += n
		}
		if sum != size || len(ds.CheckpointPartBytes) != 3 {
			t.Errorf("%s: checkpoint parts %v sum to %d bytes, the directory holds %d", when, ds.CheckpointPartBytes, sum, size)
		}
		if got := ds.CheckpointPartBytes["catalog"]; got != catalog.Size() {
			t.Errorf("%s: catalog part is %d bytes, catalog.vaib %d", when, got, catalog.Size())
		}
		families := sys.Pipeline().Indexer().IndexStats().Families
		if r := families["bm25"]; r.DeltaDocs != 0 || r.HeapBytes != inflated || inflated <= ds.CheckpointPartBytes["bm25"] {
			t.Errorf("%s: bm25 indexes %+v, the checkpoint's bm25 part %d bytes inflating to %d", when, r, ds.CheckpointPartBytes["bm25"], inflated)
		}
		// The vector indexes have no files: sealed at the checkpoint,
		// derived at the restart, the same segments either way.
		if r := families["vector"]; r.DeltaDocs != 0 || r.HeapBytes != vectorBytes {
			t.Errorf("%s: vector indexes %+v, want %d heap bytes and nothing else", when, r, vectorBytes)
		}
	}
	vectorBytes = sys.Pipeline().Indexer().IndexStats().Families["vector"].HeapBytes
	if vectorBytes == 0 {
		t.Fatal("no vector index bytes after the checkpoint")
	}
	check("after the checkpoint", sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("after a restart", reopened)
	if ds, _ := reopened.Durability(); ds.ReplayedRecords != 0 {
		t.Errorf("restart replayed %d records over a checkpoint that covers everything", ds.ReplayedRecords)
	}
}
