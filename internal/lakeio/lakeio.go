// Package lakeio persists a multi-modal data lake to a directory and loads
// it back — the interchange format between cmd/lakegen (which generates
// synthetic lakes) and cmd/verifai (which verifies against them, and
// seeds an empty data directory from one with -lake). It is a format for
// people and tools: a JSON manifest, a CSV per table, a text file per
// document. It is not the durable checkpoint — internal/durable writes
// the catalog as one binfmt container — and is read on that path only to
// open a data directory last checkpointed by a release that used this
// layout there.
//
// Layout:
//
//	<dir>/manifest.json    catalog: sources, table entries, doc entries
//	<dir>/tables/<id>.csv  one CSV per table (header row + data rows)
//	<dir>/texts/<id>.txt   one text file per document
package lakeio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// manifest is the on-disk catalog.
type manifest struct {
	Sources []datalake.Source `json:"sources"`
	Tables  []tableEntry      `json:"tables"`
	Docs    []docEntry        `json:"docs"`
	Triples []kg.Triple       `json:"triples,omitempty"`
}

type tableEntry struct {
	ID       string `json:"id"`
	Caption  string `json:"caption"`
	SourceID string `json:"source_id"`
	File     string `json:"file"`
}

type docEntry struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	EntityID string `json:"entity_id,omitempty"`
	SourceID string `json:"source_id"`
	File     string `json:"file"`
}

// Catalog is the read surface Save serializes: both the live
// *datalake.Lake and a pinned *datalake.View satisfy it, so a consistent
// export under concurrent ingestion serializes a forked view.
type Catalog interface {
	Sources() []datalake.Source
	TableIDs() []string
	Table(id string) (*table.Table, bool)
	DocIDs() []string
	Document(id string) (*doc.Document, bool)
	Triples() []kg.Triple
}

// Save writes the lake to dir, creating it if needed. Existing files are
// overwritten; unrelated files in dir are left alone. For a consistent
// snapshot under concurrent ingestion, pass a pinned view (datalake.Fork)
// instead of the live lake.
func Save(lake Catalog, dir string) error {
	for _, sub := range []string{"", "tables", "texts"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return fmt.Errorf("lakeio: mkdir: %w", err)
		}
	}
	var m manifest
	m.Sources = lake.Sources()

	for _, tid := range lake.TableIDs() {
		t, ok := lake.Table(tid)
		if !ok {
			return fmt.Errorf("lakeio: table %q vanished", tid)
		}
		rel := filepath.Join("tables", tid+".csv")
		f, err := os.Create(filepath.Join(dir, rel))
		if err != nil {
			return fmt.Errorf("lakeio: create table file: %w", err)
		}
		err = table.WriteCSV(f, t)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("lakeio: write table %q: %w", tid, err)
		}
		m.Tables = append(m.Tables, tableEntry{ID: tid, Caption: t.Caption, SourceID: t.SourceID, File: rel})
	}

	for _, did := range lake.DocIDs() {
		d, ok := lake.Document(did)
		if !ok {
			return fmt.Errorf("lakeio: document %q vanished", did)
		}
		rel := filepath.Join("texts", did+".txt")
		if err := os.WriteFile(filepath.Join(dir, rel), []byte(d.Text), 0o644); err != nil {
			return fmt.Errorf("lakeio: write doc %q: %w", did, err)
		}
		m.Docs = append(m.Docs, docEntry{ID: did, Title: d.Title, EntityID: d.EntityID, SourceID: d.SourceID, File: rel})
	}

	m.Triples = lake.Triples()

	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("lakeio: marshal manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return fmt.Errorf("lakeio: write manifest: %w", err)
	}
	return nil
}

// Load reads a lake directory written by Save into a new lake, every
// instance ingested as one batch (versions 1..n in manifest order). The
// lake runs a dispatcher goroutine; processes that discard loaded lakes
// before exiting should Close them.
func Load(dir string) (*datalake.Lake, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("lakeio: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("lakeio: parse manifest: %w", err)
	}
	var items []datalake.BatchItem
	for _, te := range m.Tables {
		f, err := os.Open(filepath.Join(dir, te.File))
		if err != nil {
			return nil, fmt.Errorf("lakeio: open table file: %w", err)
		}
		t, err := table.ReadCSV(f, te.ID, te.Caption)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("lakeio: read table %q: %w", te.ID, err)
		}
		t.SourceID = te.SourceID
		items = append(items, datalake.BatchItem{Table: t})
	}
	for _, de := range m.Docs {
		text, err := os.ReadFile(filepath.Join(dir, de.File))
		if err != nil {
			return nil, fmt.Errorf("lakeio: read doc %q: %w", de.ID, err)
		}
		d := &doc.Document{ID: de.ID, Title: de.Title, EntityID: de.EntityID, SourceID: de.SourceID, Text: string(text)}
		items = append(items, datalake.BatchItem{Doc: d})
	}
	for i := range m.Triples {
		items = append(items, datalake.BatchItem{Triple: &m.Triples[i]})
	}
	lake, err := datalake.Load(m.Sources, items)
	if err != nil {
		return nil, fmt.Errorf("lakeio: load: %w", err)
	}
	return lake, nil
}
