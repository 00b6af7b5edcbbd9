package verifai

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/lakeio"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// The sha256 of checkpoint/catalog.vaib after seedDefaultLake checkpoints
// the default lake (golden1), and after lateCheckpoints adds to it and
// checkpoints twice more (golden2): the bytes the encoder wrote when every
// table and document was a Go object, before catalogs were sealed.
// Re-hashed for catalog format 3, after both formats' files, each read by
// its own build's decoder, gave the same catalog string for string.
const (
	goldenSeededCatalog = "073c63b51ba3de37ed6d6e0afe4c906f65cc04ebc5e93bc6ea8107a9b81ec984"
	goldenLateCatalog   = "30ffb2c1773b81bb29224412c5082cb5e06d88a7e79386e4d98e37be4f14694b"
)

// savedDefaultLake writes the default workload lake to a directory, as
// lakegen does, and returns the directory and the in-memory lake.
func savedDefaultLake(t *testing.T) (string, *Lake) {
	t.Helper()
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { corpus.Lake.Close() })
	dir := filepath.Join(t.TempDir(), "lake")
	if err := lakeio.Save(corpus.Lake, dir); err != nil {
		t.Fatal(err)
	}
	return dir, corpus.Lake
}

// seedDefaultLake seeds a durable system in dataDir from the lake saved in
// lakeDir and checkpoints it, as `verifai serve -lake -data-dir` does.
func seedDefaultLake(t *testing.T, lakeDir, dataDir string) *System {
	t.Helper()
	sources, items, err := lakeio.Read(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(dataDir, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, s := range sources {
		if err := sys.Pipeline().Lake().AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.AddBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func catalogHash(t *testing.T, dataDir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, "checkpoint", "catalog.vaib"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// catalogReader is what a lake and a View both offer to read a catalog.
type catalogReader interface {
	TableIDs() []string
	Table(id string) (*table.Table, bool)
	DocIDs() []string
	Document(id string) (*doc.Document, bool)
}

// sameCatalogAs reports the first way got's tables and documents differ
// from want's ("" when they do not).
func sameCatalogAs(got, want catalogReader) string {
	if !reflect.DeepEqual(got.TableIDs(), want.TableIDs()) {
		return "table IDs differ"
	}
	if !reflect.DeepEqual(got.DocIDs(), want.DocIDs()) {
		return "document IDs differ"
	}
	for _, id := range want.TableIDs() {
		g, _ := got.Table(id)
		w, _ := want.Table(id)
		if !reflect.DeepEqual(g, w) {
			return "table " + id + " differs"
		}
	}
	for _, id := range want.DocIDs() {
		g, _ := got.Document(id)
		w, _ := want.Document(id)
		if !reflect.DeepEqual(g, w) {
			return "document " + id + " differs"
		}
	}
	return ""
}

// readCatalog is the catalog lakeio.Read produced, indexed by ID.
type readCatalog struct {
	tableIDs, docIDs []string
	tables           map[string]*table.Table
	docs             map[string]*doc.Document
}

func (c *readCatalog) TableIDs() []string { return c.tableIDs }
func (c *readCatalog) DocIDs() []string   { return c.docIDs }
func (c *readCatalog) Table(id string) (*table.Table, bool) {
	t, ok := c.tables[id]
	return t, ok
}
func (c *readCatalog) Document(id string) (*doc.Document, bool) {
	d, ok := c.docs[id]
	return d, ok
}

// TestSealedCatalogMatchesSeed is the differential for sealed catalogs: on
// the default lake, every table and document a durable system serves from
// its sealed segments equals what lakeio.Read produced and what the
// in-memory lake holds, and so do IDs and stats — after the seed's
// checkpoint, from the checkpoint's retained View, after a kill and
// reopen, from a recovered pin, and on a follower. catalog.vaib is the
// byte-identical file the Go-object encoder wrote, one segment or three.
func TestSealedCatalogMatchesSeed(t *testing.T) {
	lakeDir, mem := savedDefaultLake(t)
	_, items, err := lakeio.Read(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	read := &readCatalog{tables: map[string]*table.Table{}, docs: map[string]*doc.Document{}}
	for _, it := range items {
		switch {
		case it.Table != nil:
			read.tableIDs = append(read.tableIDs, it.Table.ID)
			read.tables[it.Table.ID] = it.Table
		case it.Doc != nil:
			read.docIDs = append(read.docIDs, it.Doc.ID)
			read.docs[it.Doc.ID] = it.Doc
		}
	}
	check := func(where string, got catalogReader) {
		t.Helper()
		if diff := sameCatalogAs(got, read); diff != "" {
			t.Fatalf("%s, against lakeio.Read: %s", where, diff)
		}
		if diff := sameCatalogAs(got, mem); diff != "" {
			t.Fatalf("%s, against the in-memory lake: %s", where, diff)
		}
		if l, ok := got.(*datalake.Lake); ok && l.Stats() != mem.Stats() {
			t.Fatalf("%s: stats %+v, the in-memory lake's %+v", where, l.Stats(), mem.Stats())
		}
	}

	root := t.TempDir()
	data := filepath.Join(root, "data")
	sys := seedDefaultLake(t, lakeDir, data)
	if h := catalogHash(t, data); h != goldenSeededCatalog {
		t.Errorf("seeded catalog.vaib hashes to %s, want %s", h, goldenSeededCatalog)
	}
	if datalake.SegmentBytes() == 0 && runtime.GOOS == "linux" && os.Getenv("REPRO_BINFMT_NOMMAP") == "" {
		t.Error("the checkpoint left no catalog segment off the heap")
	}
	check("seeded and checkpointed", sys.Pipeline().Lake())
	snaps := sys.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots retained, want the checkpoint's", len(snaps))
	}
	snap, err := sys.Pipeline().Snapshots().Acquire(snaps[0].Version)
	if err != nil {
		t.Fatal(err)
	}
	check("the checkpoint's View", snap.View())
	snap.Release()
	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A kill: reopen a copy of the directory.
	crash := filepath.Join(root, "crash")
	copyTree(t, data, crash)
	reopened, err := Open(crash, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened", reopened.Pipeline().Lake())
	psnap, err := reopened.Pipeline().Snapshots().Acquire(pin)
	if err != nil {
		t.Fatal(err)
	}
	check("the recovered pin", psnap.View())
	psnap.Release()

	wlog, floor, ckpt, format, _ := sys.ChangeFeed()
	leaderSrv := httptest.NewServer(server.New(sys.Pipeline(), server.WithChangeFeed(server.ChangeFeedConfig{
		Log: wlog, Floor: floor, CheckpointTar: ckpt, Format: format,
	})))
	defer leaderSrv.Close()
	follower, err := OpenFollower(filepath.Join(root, "follower"), leaderSrv.URL, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitReplicated(t, follower, sys.LakeVersion())
	check("the follower", follower.Pipeline().Lake())

	lateCheckpoints(t, sys)
	if h := catalogHash(t, data); h != goldenLateCatalog {
		t.Errorf("catalog.vaib over three segments hashes to %s, want %s", h, goldenLateCatalog)
	}
}

// lateCheckpoints adds a table, a document and a triple to a seeded
// system, checkpoints, adds a table and checkpoints again.
func lateCheckpoints(t *testing.T, sys *System) {
	t.Helper()
	late := table.New("late-t", "late caption", []string{"a", "b"})
	late.MustAppendRow("x", "1")
	if err := sys.AddTable(late); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(&Document{ID: "late-d", Title: "T", Text: "late body"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTriple(Triple{Subject: "s", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	late2 := table.New("late-t2", "late caption 2", []string{"a"})
	late2.MustAppendRow("y")
	if err := sys.AddTable(late2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointReleasesSeededObjects: once the seed's checkpoint has
// sealed them, nothing in a durable system keeps the seeded tables and
// documents, so two collections free them.
func TestCheckpointReleasesSeededObjects(t *testing.T) {
	lakeDir, _ := savedDefaultLake(t)
	sources, items, err := lakeio.Read(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(filepath.Join(t.TempDir(), "data"), OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, s := range sources {
		if err := sys.Pipeline().Lake().AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	var tables []weak.Pointer[table.Table]
	var docs []weak.Pointer[doc.Document]
	for _, it := range items {
		if it.Table != nil {
			tables = append(tables, weak.Make(it.Table))
		} else if it.Doc != nil {
			docs = append(docs, weak.Make(it.Doc))
		}
	}
	items = nil
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	kept := 0
	for _, p := range tables {
		if p.Value() != nil {
			kept++
		}
	}
	for _, p := range docs {
		if p.Value() != nil {
			kept++
		}
	}
	if kept > 0 {
		t.Errorf("%d of %d seeded tables and documents are still reachable after the checkpoint", kept, len(tables)+len(docs))
	}
	if len(tables) == 0 || len(docs) == 0 {
		t.Fatalf("seeded %d tables and %d documents", len(tables), len(docs))
	}
}
