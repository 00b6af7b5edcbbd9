package lakeio

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/workload"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	lake := datalake.New()
	lake.AddSource(datalake.Source{ID: "s1", Name: "tables", TrustPrior: 0.8})
	tbl := workload.USOpen1954Table()
	tbl.SourceID = "s1"
	if err := lake.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	d := &doc.Document{ID: "d1", Title: "Tommy Bolt", EntityID: "tommy bolt", SourceID: "s1", Text: "A golfer."}
	if err := lake.AddDocument(d); err != nil {
		t.Fatal(err)
	}
	lake.AddTriple(kg.Triple{Subject: "tommy bolt", Predicate: "sport", Object: "golf", SourceID: "s1"})

	dir := t.TempDir()
	if err := Save(lake, dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	a, b := lake.Stats(), loaded.Stats()
	if a != b {
		t.Errorf("stats mismatch: %+v vs %+v", a, b)
	}
	lt, ok := loaded.Table(tbl.ID)
	if !ok {
		t.Fatal("table missing after load")
	}
	if lt.Caption != tbl.Caption || lt.SourceID != "s1" || !reflect.DeepEqual(lt.Rows, tbl.Rows) {
		t.Error("table content drifted")
	}
	ld, ok := loaded.Document("d1")
	if !ok || ld.Title != "Tommy Bolt" || ld.Text != "A golfer." || ld.EntityID != "tommy bolt" {
		t.Errorf("doc drifted: %+v", ld)
	}
	if got := loaded.Graph().Lookup("tommy bolt", "sport"); len(got) != 1 || got[0] != "golf" {
		t.Errorf("triples drifted: %v", got)
	}
	src, ok := loaded.Source("s1")
	if !ok || src.TrustPrior != 0.8 {
		t.Errorf("source drifted: %+v", src)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load on empty dir succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("malformed manifest accepted")
	}
}

func TestSaveGeneratedCorpus(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables = 60
	cfg.NumTexts = 40
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(corpus.Lake, dir); err != nil {
		t.Fatalf("Save corpus: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load corpus: %v", err)
	}
	if loaded.Stats() != corpus.Lake.Stats() {
		t.Errorf("corpus stats drifted: %+v vs %+v", loaded.Stats(), corpus.Lake.Stats())
	}
}

// TestReadKeepsManifestOrder: Read, parsing on several workers, returns
// the tables, then the documents, then the triples in the order the lake
// holds them — the order Load commits them in — and a missing file fails
// the read.
func TestReadKeepsManifestOrder(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumTables = 60
	cfg.NumTexts = 40
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lake := corpus.Lake
	dir := t.TempDir()
	if err := Save(lake, dir); err != nil {
		t.Fatal(err)
	}
	sources, items, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sources, lake.Sources()) {
		t.Errorf("sources %+v, lake %+v", sources, lake.Sources())
	}
	var got, want []string
	for _, it := range items {
		switch {
		case it.Table != nil:
			got = append(got, "table "+it.Table.ID)
		case it.Doc != nil:
			got = append(got, "doc "+it.Doc.ID)
		default:
			got = append(got, "triple "+it.Triple.Subject+"|"+it.Triple.Predicate+"|"+it.Triple.Object)
		}
	}
	for _, id := range lake.TableIDs() {
		want = append(want, "table "+id)
	}
	for _, id := range lake.DocIDs() {
		want = append(want, "doc "+id)
	}
	for _, tr := range lake.Triples() {
		want = append(want, "triple "+tr.Subject+"|"+tr.Predicate+"|"+tr.Object)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Read returned %d items out of the lake's order", len(got))
	}
	if err := os.Remove(filepath.Join(dir, "tables", lake.TableIDs()[7]+".csv")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(dir); err == nil {
		t.Error("Read succeeded with a table file missing")
	}
}
