package verifai

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/datalake"
	"repro/internal/table"
	"repro/internal/workload"
)

// liveTables is a second corpus shaped as ingest_live's writes: n tables
// of a lake generated from another seed, IDs prefixed live- so they never
// collide with the default lake's.
func liveTables(t *testing.T, n int) []*Table {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed ^= 0x6c697665 // "live"
	cfg.NumTables, cfg.NumTexts, cfg.KGTableFraction = n, 0, 0
	second, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Lake.Close()
	out := make([]*Table, n)
	for i, src := range second.Tables {
		out[i] = src.Clone()
		out[i].ID = fmt.Sprintf("live-%06d", i)
		out[i].SourceID = workload.SourceTables
	}
	return out
}

// TestTailHeapBoundedAfterCheckpoint: 1,650 tables ingested one at a time
// after the seed's checkpoint, as ingest_live writes them, grow the live
// heap — beyond the tables themselves, which the test holds throughout —
// by little more than one seal's worth of tail: the lake seals its tables
// and the indexes their deltas off the heap as the payload passes
// datalake.SealBytes, not at the next checkpoint. (Sealing only at a
// checkpoint, the same writes held 7.4 MB more.)
func TestTailHeapBoundedAfterCheckpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap audit skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("ingests a second corpus; skipped in -short")
	}
	lakeDir, _ := savedDefaultLake(t)
	sys := seedDefaultLake(t, lakeDir, filepath.Join(t.TempDir(), "data"))
	tables := liveTables(t, 1650)
	before := liveHeap()
	for _, tb := range tables {
		if err := sys.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	growth := liveHeap() - before
	runtime.KeepAlive(tables)
	mem := sys.Pipeline().Indexer().IndexStats().Families
	t.Logf("live heap grew %.2f MB; tail: lake %d B, bm25 %d B, vector %d B; segments: bm25 %d, vector %d",
		float64(growth)/(1<<20), sys.Pipeline().Lake().TailBytes(), mem["bm25"].TailBytes, mem["vector"].TailBytes,
		mem["bm25"].Segments, mem["vector"].Segments)
	if growth > 2.5*(1<<20) {
		t.Errorf("the live heap grew %.2f MB over 1,650 tables, want at most 2.5 MB", float64(growth)/(1<<20))
	}
	if mem["bm25"].Segments <= 4 {
		t.Errorf("%d BM25 segments over four kinds: the tail never sealed by size", mem["bm25"].Segments)
	}
}

// TestPinMidTailKeepsNoTables: a pin forked while tables sit in the tail
// seals them first, so after two collections nothing — not the pin's View,
// not its indexes, not the live lake — keeps the tables that were
// ingested, and the pin reads them back as they were.
func TestPinMidTailKeepsNoTables(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tables := liveTables(t, 40)
	want := make(map[string]*Table, len(tables))
	held := make([]weak.Pointer[table.Table], len(tables))
	for i, tb := range tables {
		want[tb.ID] = tb.Clone()
		held[i] = weak.Make(tb)
		if err := sys.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Pipeline().Lake().TailBytes() == 0 {
		t.Fatal("the tables are not in the tail: the test would not fork mid-tail")
	}
	tables = nil
	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	kept := 0
	for _, p := range held {
		if p.Value() != nil {
			kept++
		}
	}
	if kept > 0 {
		t.Errorf("%d of %d tables ingested before the pin are still reachable", kept, len(held))
	}
	snap, err := sys.Pipeline().Snapshots().Acquire(pin)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for id, w := range want {
		if got, ok := snap.View().Table(id); !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("the pin reads table %s as %+v, want %+v", id, got, w)
		}
	}
}

// checkpointHashes is the sha256 of catalog.vaib and of every BM25 file of
// the checkpoint in dataDir, by file name, and under the table kind's file
// name, which the checkpoint does not write, that of the file the table
// kind's BM25 segment would be: the segment a restart on dataDir sums from
// the tuple kind's, written through invindex.Frozen.Save.
func checkpointHashes(t *testing.T, dataDir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	sys, err := Open(dataDir, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var table bytes.Buffer
	if err := sys.Pipeline().Indexer().Freeze().BM25(datalake.KindTable).Save(&table); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(table.Bytes())
	out["bm25-table-000.idx"] = hex.EncodeToString(sum[:])
	for _, pattern := range []string{"catalog.vaib", filepath.Join("indexes", "bm25-*.idx")} {
		paths, err := filepath.Glob(filepath.Join(dataDir, "checkpoint", pattern))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no %s in the checkpoint (%v)", pattern, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			out[filepath.Base(p)] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

// goldenSizeSealed is what checkpointHashes gave for TestSizeSealsKeep-
// CheckpointBytes's writes before the lake sealed by size: every one of
// them a Go object until the checkpoint. The BM25 files were re-hashed
// for snapshot format 5, which decodes to the same values, and for format
// 6, whose files inflate to the format-5 files' bytes. Since format 7 the
// bm25-table hash is that of the table kind's segment as a restart sums
// it, written as format 6 wrote the file: the same bytes. catalog.vaib was
// re-hashed for catalog format 3, which loads to the same catalog.
var goldenSizeSealed = map[string]string{
	"bm25-entity-000.idx": "81ef42dfbb027586e8bae70a96f7deae3f7520a4b268088c67fe8498464d77d4",
	"bm25-table-000.idx":  "5b6b6cb6d9cdf10b78e92f25c15b248e4178f96349d2912c0ce22935f259dadf",
	"bm25-text-000.idx":   "8a2e2b183be8f54ad1c3ef7d1132e4c9695f3d7151ecac03c0c3a30021778667",
	"bm25-tuple-000.idx":  "86201a96657e465a48c28ae0ce7c84fa1334fc56a37fa5aeda02c8bfdcc4f662",
	"catalog.vaib":        "461d62baf58cc09872e272f84ab970db9ae270faddb2b8e83cef8c96a1751e8d",
}

// TestSizeSealsKeepCheckpointBytes is the disk guard of sealing by size:
// a fixed sequence of tables, documents and triples written one at a time
// seals the tail many times (and merges segments) before its checkpoint,
// yet catalog.vaib and every BM25 file are byte for byte the ones a
// checkpoint writes for the same writes made as one batch, which seals
// once, and the ones written when nothing sealed before a checkpoint.
func TestSizeSealsKeepCheckpointBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests a second corpus; skipped in -short")
	}
	tables := liveTables(t, 2000)
	var items []BatchItem
	for i, tb := range tables {
		items = append(items, BatchItem{Table: tb})
		if i%3 == 0 {
			items = append(items, BatchItem{Doc: &Document{ID: fmt.Sprint("doc-", i), Title: tb.Caption,
				Text: strings.Join(tb.Columns, " ") + " " + tb.Caption, SourceID: "s"}})
		}
		if i%5 == 0 {
			items = append(items, BatchItem{Triple: &Triple{Subject: fmt.Sprint("entity ", i%17), Predicate: tb.Columns[0],
				Object: tb.Caption, SourceID: "s"}})
		}
	}
	checkpointed := func(batch bool) map[string]string {
		data := filepath.Join(t.TempDir(), "data")
		sys, err := Open(data, durableOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		if batch {
			res, err := sys.AddBatch(items)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		} else {
			for _, it := range items {
				if _, err := sys.AddBatch([]BatchItem{it}); err != nil {
					t.Fatal(err)
				}
			}
			seals := sys.Metrics().Histogram("verifai_tail_seal_seconds", "").Count()
			merges := sys.Metrics().Counter("verifai_catalog_merges_total", "").Value()
			if seals < 3 || merges == 0 {
				t.Fatalf("%d seals and %d merges before the checkpoint: the test does not exercise sealing by size", seals, merges)
			}
		}
		if _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return checkpointHashes(t, data)
	}
	sealed, once := checkpointed(false), checkpointed(true)
	if !reflect.DeepEqual(sealed, once) {
		t.Errorf("size seals changed the checkpoint:\n sealed %v\n once   %v", sealed, once)
	}
	if !reflect.DeepEqual(sealed, goldenSizeSealed) {
		t.Errorf("the checkpoint differs from the one written before sealing by size:\n got  %v\n want %v", sealed, goldenSizeSealed)
	}
}
