package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/faultfs"
	"repro/internal/kg"
	"repro/internal/table"
)

// buildPersistLake returns a lake with a few instances of every modality.
func buildPersistLake(t *testing.T) *datalake.Lake {
	t.Helper()
	lake := datalake.New()
	t.Cleanup(func() { lake.Close() })
	if err := lake.AddSource(datalake.Source{ID: "s", Name: "test"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tbl := table.New(fmt.Sprintf("t%d", i), fmt.Sprintf("league season %d results", i), []string{"player", "score"})
		tbl.MustAppendRow(fmt.Sprintf("alice %d", i), fmt.Sprintf("%d", 10+i))
		tbl.MustAppendRow(fmt.Sprintf("bob %d", i), fmt.Sprintf("%d", 20+i))
		tbl.SourceID = "s"
		if err := lake.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		d := &doc.Document{ID: fmt.Sprintf("d%d", i), Title: fmt.Sprintf("season %d report", i),
			Text: fmt.Sprintf("the season %d championship was decided by a narrow margin", i), SourceID: "s"}
		if err := lake.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		if err := lake.AddTriple(kg.Triple{Subject: fmt.Sprintf("player%d", i), Predicate: "plays_in", Object: "league", SourceID: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// TestIndexerSnapshotRoundTrip saves a snapshot and rebuilds an indexer
// from it, asserting retrieval is identical. The subtest is named for the
// fingerprint's "vector" key, 0 for the one vector shard form.
func TestIndexerSnapshotRoundTrip(t *testing.T) {
	t.Run("vector=0", func(t *testing.T) {
		lake := buildPersistLake(t)
		cfg := DefaultIndexerConfig(7)
		ix, err := BuildIndexer(lake, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()

		dir := t.TempDir()
		var v uint64
		if err := lake.Quiesce(func(version uint64) error {
			v = version
			return ix.Freeze().Save(faultfs.OS, dir, version)
		}); err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			t.Fatal("quiesced version is 0")
		}

		loaded, err := BuildIndexerFromSnapshot(lake, cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()

		for _, query := range []string{"season 2 championship", "alice score", "player1 league"} {
			_, a := ix.Retrieve(query, 10)
			_, b := loaded.Retrieve(query, 10)
			if len(a) != len(b) {
				t.Fatalf("query %q: candidate counts differ (%d vs %d)\n%v\n%v", query, len(a), len(b), a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("query %q candidate %d drifted: %s vs %s", query, i, a[i], b[i])
				}
			}
		}

		// The snapshot-built indexer is live: new ingests are indexed.
		d := &doc.Document{ID: "fresh", Title: "fresh doc", Text: "completely fresh zanzibar content", SourceID: "s"}
		if err := lake.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		_, got := loaded.Retrieve("zanzibar", 5, datalake.KindText)
		if len(got) == 0 || got[0] != "text:fresh" {
			t.Fatalf("snapshot-built indexer did not index live ingest: %v", got)
		}
	})
}

// TestSnapshotMismatch checks stale or misconfigured snapshots are
// refused with ErrSnapshotMismatch instead of silently half-loading.
func TestSnapshotMismatch(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return ix.Freeze().Save(faultfs.OS, dir, v) }); err != nil {
		t.Fatal(err)
	}

	// Different layout-relevant configuration.
	other := cfg
	other.EmbedDim = 64
	if _, err := BuildIndexerFromSnapshot(lake, other, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("config mismatch error = %v, want ErrSnapshotMismatch", err)
	}

	// Fingerprints of directories this build does not write: one from before
	// flat vector indexes held int8 rows (no row format named), one whose
	// indexes were hash-sharded four ways, one whose text vectors were
	// chunked and one with no vector indexes.
	metaPath := filepath.Join(dir, "meta.json")
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, forged := range []struct{ name, old, new string }{
		{"float-row", `"vector_rows": "int8",`, ``},
		{"four-shard", `"shards": 1`, `"shards": 4`},
		{"chunked", `"chunk_tokens": 0`, `"chunk_tokens": 32`},
		{"bm25-only", `"enable_vector": true`, `"enable_vector": false`},
	} {
		older := bytes.Replace(meta, []byte(forged.old), []byte(forged.new), 1)
		if bytes.Equal(older, meta) {
			t.Fatalf("meta.json carries no %s: %s", forged.old, meta)
		}
		if err := os.WriteFile(metaPath, older, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildIndexerFromSnapshot(lake, cfg, dir); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s directory error = %v, want ErrSnapshotMismatch", forged.name, err)
		}
	}
	if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := BuildIndexerFromSnapshot(lake, cfg, dir); err != nil {
		t.Fatalf("restored meta.json refused: %v", err)
	} else {
		loaded.Close()
	}

	// Lake moved past the snapshot.
	if err := lake.AddDocument(&doc.Document{ID: "extra", Text: "x", SourceID: "s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexerFromSnapshot(lake, cfg, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("stale snapshot error = %v, want ErrSnapshotMismatch", err)
	}

	// Missing directory.
	if _, err := BuildIndexerFromSnapshot(lake, cfg, t.TempDir()); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("missing snapshot error = %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotFingerprint pins the configuration fingerprint meta.json
// carries for the default indexer: data directories and durable pins
// already written open only while it stays these bytes. A directory
// fingerprinted for another vector index family is refused.
func TestSnapshotFingerprint(t *testing.T) {
	const golden = `{"seed":1,"embed_dim":128,"enable_bm25":true,"enable_vector":true,"vector":0,"vector_rows":"int8","kinds":[0,1,2,3],"chunk_tokens":0,"shards":1}`
	if got, err := canonicalConfig(DefaultIndexerConfig(1)); err != nil || string(got) != golden {
		t.Fatalf("fingerprint = %s (%v), want %s", got, err, golden)
	}

	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return ix.Freeze().Save(faultfs.OS, dir, v) }); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	ivf := bytes.Replace(meta, []byte(`"vector": 0,`), []byte(`"vector": 1, "ivf_lists": 64, "ivf_probes": 8,`), 1)
	ivf = bytes.Replace(ivf, []byte(`"vector_rows": "int8",`), nil, 1)
	if !bytes.Contains(meta, []byte(`"vector": 0,`)) || bytes.Equal(ivf, meta) {
		t.Fatalf("meta.json carries no vector fingerprint: %s", meta)
	}
	if err := os.WriteFile(metaPath, ivf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexerFromSnapshot(lake, cfg, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("IVF-fingerprinted directory error = %v, want ErrSnapshotMismatch", err)
	}
}

// TestCorruptShardFailsLoudly distinguishes corruption from staleness: a
// present-but-mangled shard — a flipped byte, its deflated stream cut
// short or followed by a byte, or a container length in its header past
// what the stream could hold — must surface an error that is NOT
// ErrSnapshotMismatch, so operators never silently rebuild over bad disks.
func TestCorruptShardFailsLoudly(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return ix.Freeze().Save(faultfs.OS, dir, v) }); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "bm25-*.idx"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no bm25 shard files: %v", err)
	}
	good, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"flipped byte":     func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"stream cut short": func(b []byte) []byte { return b[:len(b)-4] },
		"trailing byte":    func(b []byte) []byte { return append(b, 0) },
		"length past the stream": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(binfmt.FileMagic):], 1<<40)
			return b
		},
	} {
		if err := os.WriteFile(matches[0], mangle(bytes.Clone(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = BuildIndexerFromSnapshot(lake, cfg, dir)
		if err == nil {
			t.Fatalf("%s: corrupt shard loaded without error", name)
		}
		if errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s: corruption reported as staleness: %v", name, err)
		}
	}
}
