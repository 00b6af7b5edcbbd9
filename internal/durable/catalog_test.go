package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/lakeio"
	"repro/internal/table"
	"repro/internal/wal"
)

// catalogBytes encodes view as writeCatalog would put it on disk.
func catalogBytes(t testing.TB, view *datalake.View) []byte {
	t.Helper()
	w, err := encodeCatalog(view)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameCatalog reports how two views' catalogs differ ("" when they do not;
// versions are not compared — a reloaded lake counts its own).
func sameCatalog(got, want *datalake.View) string {
	if !reflect.DeepEqual(got.Sources(), want.Sources()) {
		return fmt.Sprintf("sources %v, want %v", got.Sources(), want.Sources())
	}
	if !reflect.DeepEqual(got.TableIDs(), want.TableIDs()) {
		return fmt.Sprintf("table ids %v, want %v", got.TableIDs(), want.TableIDs())
	}
	for _, id := range want.TableIDs() {
		g, _ := got.Table(id)
		w, _ := want.Table(id)
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("table %q: %+v, want %+v", id, g, w)
		}
	}
	if !reflect.DeepEqual(got.DocIDs(), want.DocIDs()) {
		return fmt.Sprintf("doc ids %v, want %v", got.DocIDs(), want.DocIDs())
	}
	for _, id := range want.DocIDs() {
		g, _ := got.Document(id)
		w, _ := want.Document(id)
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("document %q: %+v, want %+v", id, g, w)
		}
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		return fmt.Sprintf("triples %v, want %v", got.Triples(), want.Triples())
	}
	return ""
}

func forkOf(t testing.TB, lake *datalake.Lake) *datalake.View {
	t.Helper()
	view, err := lake.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// awkwardLake holds the shapes a catalog codec gets wrong: an empty table,
// a table with no columns, cells that are empty, not UTF-8, or full of CSV
// and JSON syntax, a ragged row, subjects that differ only in case, an
// empty subject, and a source the catalog's instances never mention.
func awkwardLake(t testing.TB) *datalake.Lake {
	t.Helper()
	lake := datalake.New()
	t.Cleanup(func() { lake.Close() })
	for _, src := range []datalake.Source{
		{ID: "web", Name: "web tables", TrustPrior: 0.7},
		{ID: "unused", Name: "", TrustPrior: 0.123456789012345678},
	} {
		if err := lake.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	plain := table.New("plain", "1954 u.s. open (golf)", []string{"player", "money"})
	plain.SourceID = "web"
	plain.MustAppendRow("tommy bolt", "570")
	plain.MustAppendRow("", "\xff\xfe not utf-8 \x00")
	plain.MustAppendRow("a,\"b\"\r\nc", `{"json":[1,2]}`)
	empty := table.New("empty", "no rows yet", []string{"a", "b", "c"})
	bare := table.New("bare", "", nil)
	ragged := table.New("ragged", "scraped", []string{"x", "y"})
	ragged.Rows = [][]string{{"1", "2"}, {"3"}, nil, {"4", "5", "6"}}
	for _, tb := range []*table.Table{plain, empty, bare, ragged} {
		if err := lake.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []*doc.Document{
		{ID: "d1", Title: "Tommy Bolt", EntityID: "tommy bolt", SourceID: "web", Text: "Tommy Bolt won 570.\n\nSecond paragraph."},
		{ID: "d2"},
	} {
		if err := lake.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []kg.Triple{
		{Subject: "Ohio", Predicate: "capital", Object: "Columbus", SourceID: "web"},
		{Subject: "ohio", Predicate: "Capital", Object: "columbus"},
		{Subject: "OHIO", Predicate: "capital", Object: "Columbus", SourceID: "web"},
		{Subject: "", Predicate: "", Object: ""},
	} {
		if err := lake.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// TestCatalogRoundTrip: Fork → container → load → Fork gives back the
// catalog it was given, for an empty lake and for the awkward one.
func TestCatalogRoundTrip(t *testing.T) {
	emptyLake := datalake.New()
	defer emptyLake.Close()
	for name, lake := range map[string]*datalake.Lake{"empty": emptyLake, "awkward": awkwardLake(t)} {
		t.Run(name, func(t *testing.T) {
			want := forkOf(t, lake)
			loaded, err := decodeCatalog(catalogBytes(t, want))
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if diff := sameCatalog(forkOf(t, loaded), want); diff != "" {
				t.Fatal(diff)
			}
			if got, wantN := loaded.Version(), uint64(len(want.TableIDs())+len(want.DocIDs())+len(want.Triples())); got != wantN {
				t.Errorf("loaded lake at version %d, want one per instance (%d)", got, wantN)
			}
		})
	}
}

// TestCheckpointIsOneCatalogFile: a checkpoint's catalog is the container
// and nothing else, however many instances it holds; reopening returns
// the same catalog; and the store reports the directory's size.
func TestCheckpointIsOneCatalogFile(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	lake := st.Lake()
	mustIngest(t, lake, 200, "d")
	for i := 0; i < 50; i++ {
		tb := table.New(fmt.Sprintf("t%02d", i), "caption", []string{"a", "b"})
		tb.MustAppendRow(fmt.Sprint(i), "x")
		if err := lake.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	want := forkOf(t, lake)
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var bytesOnDisk int64
	for _, e := range entries {
		names = append(names, e.Name())
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytesOnDisk += info.Size()
	}
	if strings.Join(names, " ") != "META.json catalog.vaib" {
		t.Fatalf("checkpoint holds %v, want META.json and catalog.vaib", names)
	}
	if s := st.Stats(); s.CheckpointFiles != 2 || s.CheckpointBytes != bytesOnDisk {
		t.Errorf("stats report %d files / %d bytes, directory holds 2 / %d", s.CheckpointFiles, s.CheckpointBytes, bytesOnDisk)
	}
	lake.Close()
	st.Close()

	st2 := openStore(t, dir, Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if diff := sameCatalog(forkOf(t, st2.Lake()), want); diff != "" {
		t.Fatal(diff)
	}
	if v := st2.Lake().Version(); v != want.Version() {
		t.Errorf("reopened at version %d, want %d", v, want.Version())
	}
	if s := st2.Stats(); s.CheckpointFiles != 2 || s.CheckpointBytes != bytesOnDisk {
		t.Errorf("after reopen stats report %d files / %d bytes, directory holds 2 / %d", s.CheckpointFiles, s.CheckpointBytes, bytesOnDisk)
	}
}

// TestCorruptCatalogFailsOpen: a flipped byte anywhere in the container,
// or a container cut short, fails Open — never a partial lake. (A missing
// container is not this case: that is the older layout, below.)
func TestCorruptCatalogFailsOpen(t *testing.T) {
	seed := t.TempDir()
	st := openStore(t, seed, Options{Sync: wal.SyncNone})
	mustIngest(t, st.Lake(), 40, "d")
	if err := st.Lake().AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	want := forkOf(t, st.Lake())
	st.Lake().Close()
	st.Close()
	good, err := os.ReadFile(filepath.Join(seed, "checkpoint", catalogFile))
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{
		"truncated to half":    good[:len(good)/2],
		"truncated by a byte":  good[:len(good)-1],
		"truncated to nothing": {},
	}
	// A flip in every 7th byte reaches the header, the TOC, every section
	// and the padding between them.
	for off := 0; off < len(good); off += 7 {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		damage[fmt.Sprintf("byte %d flipped", off)] = flipped
	}
	rejected := 0
	for name, data := range damage {
		dir := filepath.Join(t.TempDir(), "d")
		copyDir(t, seed, dir)
		if err := os.WriteFile(filepath.Join(dir, "checkpoint", catalogFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{Sync: wal.SyncNone})
		if err == nil {
			// Padding between sections is covered by no checksum and read by
			// no one: only a flip there may open, and with the catalog whole.
			if diff := sameCatalog(forkOf(t, st.Lake()), want); diff != "" || !strings.HasPrefix(name, "byte") {
				t.Errorf("%s: Open succeeded (%s)", name, diff)
			}
			st.Lake().Close()
			st.Close()
			continue
		}
		rejected++
		if !strings.Contains(err.Error(), "catalog") {
			t.Errorf("%s: error does not name the catalog: %v", name, err)
		}
	}
	if rejected < len(damage)*9/10 {
		t.Errorf("only %d of %d damaged containers were rejected", rejected, len(damage))
	}
}

// TestParentLayoutCheckpointOpens: a data directory whose checkpoint is
// the older lakeio tree under a format-1 META.json opens with its
// contents, and the next checkpoint replaces the tree with a container.
func TestParentLayoutCheckpointOpens(t *testing.T) {
	src := datalake.New()
	defer src.Close()
	if err := src.AddSource(datalake.Source{ID: "web", Name: "web", TrustPrior: 0.7}); err != nil {
		t.Fatal(err)
	}
	tb := table.New("t1", "caption", []string{"a", "b"})
	tb.SourceID = "web"
	tb.MustAppendRow("1", "2")
	if err := src.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, src, 5, "d")
	if err := src.AddTriple(kg.Triple{Subject: "s", Predicate: "p", Object: "o", SourceID: "web"}); err != nil {
		t.Fatal(err)
	}
	want := forkOf(t, src)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint")
	if err := lakeio.Save(want, ckpt); err != nil {
		t.Fatal(err)
	}
	meta := fmt.Sprintf(`{"format": 1, "version": %d, "created_unix": 1700000000}`, want.Version())
	if err := os.WriteFile(filepath.Join(ckpt, metaFile), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir, Options{Sync: wal.SyncNone})
	if diff := sameCatalog(forkOf(t, st.Lake()), want); diff != "" {
		t.Fatal(diff)
	}
	if v := st.Lake().Version(); v != want.Version() {
		t.Fatalf("opened at version %d, want %d", v, want.Version())
	}
	mustIngest(t, st.Lake(), 1, "late")
	want = forkOf(t, st.Lake())
	if _, err := st.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	st.Lake().Close()
	st.Close()

	for _, gone := range []string{"manifest.json", "tables", "texts"} {
		if _, err := os.Stat(filepath.Join(ckpt, gone)); !os.IsNotExist(err) {
			t.Errorf("%s survived the rewrite (stat: %v)", gone, err)
		}
	}
	if m, err := readCheckpointMeta(st.fs, ckpt); err != nil || m == nil || m.Format != checkpointFormat {
		t.Errorf("rewritten META = %+v, %v; want format %d", m, err, checkpointFormat)
	}
	st2 := openStore(t, dir, Options{Sync: wal.SyncNone})
	defer func() { st2.Lake().Close(); st2.Close() }()
	if diff := sameCatalog(forkOf(t, st2.Lake()), want); diff != "" {
		t.Fatal(diff)
	}
}

// catalogSections lists every section a catalog container may hold.
var catalogSections = append([]string{"sources", "table.ncols", "table.nrows", "table.rowwidth"}, catalogStringColumns...)

// withSection returns the container good with one section's payload
// replaced (or added) and every checksum valid again, so damage reaches
// the catalog decoder instead of stopping at the container's CRCs.
func withSection(t testing.TB, good []byte, name string, payload []byte) []byte {
	t.Helper()
	r, err := binfmt.NewReader(good)
	if err != nil {
		t.Fatal(err)
	}
	w := binfmt.NewWriter()
	for _, sec := range catalogSections {
		b, err := r.Bytes(sec)
		if sec == name {
			b, err = payload, nil
		}
		if err == nil {
			w.Section(sec, b)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadCatalog feeds the catalog decoder arbitrary bytes — what
// recovery reads after a torn write, a partial restore or meddling under
// <dir>/checkpoint — both as the whole file and, behind valid checksums,
// as the payload of one section of an otherwise good container (the first
// byte picks which). It must never panic or size an allocation by a
// forged count, and whatever it accepts must be a fixed point: re-encoding
// the loaded catalog and loading that gives the same catalog.
func FuzzLoadCatalog(f *testing.F) {
	emptyLake := datalake.New()
	defer emptyLake.Close()
	for _, lake := range []*datalake.Lake{emptyLake, awkwardLake(f)} {
		good := catalogBytes(f, forkOf(f, lake))
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:len(good)-1])
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)/3] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("VAIB"))
	f.Add([]byte(`{"sources":[]}`))
	f.Add([]byte{0, '[', '{', '}', ']'})              // sources: one zero source
	f.Add([]byte{0, 'n', 'u', 'l', 'l'})              // sources: null
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff})          // ncols: one table of 4G columns
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0}) // nrows: 2G rows, then a ragged length
	f.Add([]byte{3, 0, 0, 0, 0})                      // rowwidth: too few widths
	f.Add([]byte{3})                                  // rowwidth: present but empty
	f.Add([]byte{8, 0xff, 0xff, 0xff, 0xff, 0x0f})    // table.cells: count 4G, nothing else
	f.Add([]byte{8, 2, 1, 0xff, 0x01, 'a'})           // table.cells: a length past the blob
	f.Add([]byte{8, 0})                               // table.cells: no cells at all
	f.Add([]byte{4, 1, 2, 'i', 'd'})                  // table.id: one table where four are described

	good := catalogBytes(f, forkOf(f, awkwardLake(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > 0 {
			inputs = append(inputs, withSection(t, good, catalogSections[int(data[0])%len(catalogSections)], data[1:]))
		}
		for _, in := range inputs {
			lake, err := decodeCatalog(in)
			if err != nil {
				continue
			}
			view := forkOf(t, lake)
			lake.Close()
			again, err := decodeCatalog(catalogBytes(t, view))
			if err != nil {
				t.Fatalf("re-encoded catalog does not load: %v", err)
			}
			diff := sameCatalog(forkOf(t, again), view)
			again.Close()
			if diff != "" {
				t.Fatalf("catalog is not a fixed point of encode/decode: %s", diff)
			}
		}
	})
}
