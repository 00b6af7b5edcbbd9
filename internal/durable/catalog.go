package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/lakeio"
	"repro/internal/table"
)

// A checkpoint (and a pin) stores its catalog as one binfmt container, the
// format of the index shards beside it: every table, document and triple
// of the lake as a handful of string and integer columns, each CRC'd, in
// one file written through the store's filesystem — not a file per object.
//
//	sources                         JSON []datalake.Source
//	table.id/.caption/.source       one string per table
//	table.ncols/.nrows              one uint32 per table
//	table.columns                   column names, tables concatenated
//	table.cells                     cells, row-major, tables concatenated
//	table.rowwidth                  empty unless some row is not ncols wide:
//	                                then one uint32 per row, tables concatenated
//	doc.id/.title/.entity/.source/.text        one string per document
//	triple.subject/.predicate/.object/.source  one string per triple
//
// Order is the catalog's: tables and documents in insertion order, triples
// in graph order, so a reloaded lake forks to the same View.

// catalogFile is the container's name inside a checkpoint or pin directory.
const catalogFile = "catalog.vaib"

// writeCatalog serializes view into dir (created if needed) through the
// store's filesystem.
func (s *Store) writeCatalog(view *datalake.View, dir string) error {
	w, err := encodeCatalog(view)
	if err != nil {
		return err
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: mkdir: %w", err)
	}
	f, err := s.fs.OpenFile(filepath.Join(dir, catalogFile), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create catalog: %w", err)
	}
	_, err = w.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: write catalog: %w", err)
	}
	return nil
}

// LoadCatalog loads the catalog a checkpoint or pin directory holds into a
// fresh lake (versions 1..n in catalog order; the caller fast-forwards to
// the directory's pinned version). A directory written before the
// container existed holds the lakeio layout instead and loads through it;
// the next checkpoint rewrites it. A container that is truncated or fails
// a checksum is an error, never a partial lake.
func (s *Store) LoadCatalog(dir string, opts ...datalake.Option) (*datalake.Lake, error) {
	data, err := s.fs.ReadFile(filepath.Join(dir, catalogFile))
	if errors.Is(err, os.ErrNotExist) {
		return lakeio.Load(dir, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read catalog: %w", err)
	}
	return decodeCatalog(data, opts...)
}

func encodeCatalog(view *datalake.View) (*binfmt.Writer, error) {
	w := binfmt.NewWriter()
	if err := w.JSON("sources", view.Sources()); err != nil {
		return nil, fmt.Errorf("durable: encode catalog: %w", err)
	}
	cols := make(map[string][]string)
	add := func(name string, vals ...string) { cols[name] = append(cols[name], vals...) }

	tableIDs := view.TableIDs()
	ncols := make([]uint32, 0, len(tableIDs))
	nrows := make([]uint32, 0, len(tableIDs))
	var rowWidth []uint32
	ragged := false
	for _, id := range tableIDs {
		t, _ := view.Table(id) // a View holds every ID it lists
		add("table.id", t.ID)
		add("table.caption", t.Caption)
		add("table.source", t.SourceID)
		add("table.columns", t.Columns...)
		ncols = append(ncols, uint32(len(t.Columns)))
		nrows = append(nrows, uint32(len(t.Rows)))
		for _, row := range t.Rows {
			add("table.cells", row...)
			rowWidth = append(rowWidth, uint32(len(row)))
			// A zero-width row counts as ragged so that every row costs
			// the file something (the reader bounds its allocations by it).
			ragged = ragged || len(row) != len(t.Columns) || len(row) == 0
		}
	}
	for _, id := range view.DocIDs() {
		d, _ := view.Document(id)
		add("doc.id", d.ID)
		add("doc.title", d.Title)
		add("doc.entity", d.EntityID)
		add("doc.source", d.SourceID)
		add("doc.text", d.Text)
	}
	for _, tr := range view.Triples() {
		add("triple.subject", tr.Subject)
		add("triple.predicate", tr.Predicate)
		add("triple.object", tr.Object)
		add("triple.source", tr.SourceID)
	}
	for _, name := range catalogStringColumns {
		w.PackedStrings(name, cols[name])
	}
	w.Uint32s("table.ncols", ncols)
	w.Uint32s("table.nrows", nrows)
	if !ragged {
		rowWidth = nil
	}
	w.Uint32s("table.rowwidth", rowWidth)
	return w, nil
}

// catalogStringColumns lists the container's string columns in file order.
var catalogStringColumns = []string{
	"table.id", "table.caption", "table.source", "table.columns", "table.cells",
	"doc.id", "doc.title", "doc.entity", "doc.source", "doc.text",
	"triple.subject", "triple.predicate", "triple.object", "triple.source",
}

// decodeCatalog rebuilds a lake from container bytes. Every count is
// checked against the column it indexes before anything is sliced, so a
// container whose sections pass their CRCs but disagree with each other
// (only a bug or a forged file can produce one) is still an error.
func decodeCatalog(data []byte, opts ...datalake.Option) (*datalake.Lake, error) {
	r, err := binfmt.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	var sources []datalake.Source
	if err := r.JSON("sources", &sources); err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	cols := make(map[string][]string, len(catalogStringColumns))
	for _, name := range catalogStringColumns {
		if cols[name], err = r.PackedStrings(name); err != nil {
			return nil, fmt.Errorf("durable: catalog: %w", err)
		}
	}
	sameLen := func(names ...string) error {
		for _, name := range names[1:] {
			if len(cols[name]) != len(cols[names[0]]) {
				return fmt.Errorf("durable: catalog: column %q has %d entries, %q has %d", name, len(cols[name]), names[0], len(cols[names[0]]))
			}
		}
		return nil
	}
	if err := sameLen("table.id", "table.caption", "table.source"); err != nil {
		return nil, err
	}
	if err := sameLen("doc.id", "doc.title", "doc.entity", "doc.source", "doc.text"); err != nil {
		return nil, err
	}
	if err := sameLen("triple.subject", "triple.predicate", "triple.object", "triple.source"); err != nil {
		return nil, err
	}
	ncols, err := r.Uint32s("table.ncols")
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	nrows, err := r.Uint32s("table.nrows")
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	if len(ncols) != len(cols["table.id"]) || len(nrows) != len(cols["table.id"]) {
		return nil, fmt.Errorf("durable: catalog: %d tables but %d column counts and %d row counts", len(cols["table.id"]), len(ncols), len(nrows))
	}
	// rowWidth is empty (nil) for the usual all-rectangular catalog.
	rowWidth, err := r.Uint32s("table.rowwidth")
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}

	items := make([]datalake.BatchItem, 0, len(cols["table.id"])+len(cols["doc.id"])+len(cols["triple.subject"]))
	columns, cells := cols["table.columns"], cols["table.cells"]
	// take cuts the next n strings off *from, or fails when the counts
	// claim more than the column holds.
	take := func(from *[]string, n uint32, id string) ([]string, error) {
		if uint64(n) > uint64(len(*from)) {
			return nil, fmt.Errorf("durable: catalog: table %q claims %d more strings, column has %d left", id, n, len(*from))
		}
		if n == 0 {
			return nil, nil
		}
		out := (*from)[:n:n]
		*from = (*from)[n:]
		return out, nil
	}
	for i, id := range cols["table.id"] {
		t := &table.Table{ID: id, Caption: cols["table.caption"][i], SourceID: cols["table.source"][i]}
		if t.Columns, err = take(&columns, ncols[i], id); err != nil {
			return nil, err
		}
		// The writer spends a cell or a width entry on every row, so this
		// bounds the allocation below by the container's size.
		left := len(cells)
		if rowWidth != nil {
			left = len(rowWidth)
		}
		if uint64(nrows[i]) > uint64(left) {
			return nil, fmt.Errorf("durable: catalog: table %q claims %d rows, %d left", id, nrows[i], left)
		}
		if nrows[i] > 0 {
			t.Rows = make([][]string, nrows[i])
		}
		for row := range t.Rows {
			width := ncols[i]
			if rowWidth != nil {
				width, rowWidth = rowWidth[0], rowWidth[1:]
			}
			if t.Rows[row], err = take(&cells, width, id); err != nil {
				return nil, err
			}
		}
		items = append(items, datalake.BatchItem{Table: t})
	}
	if len(columns) != 0 || len(cells) != 0 || len(rowWidth) != 0 {
		return nil, fmt.Errorf("durable: catalog: %d column names, %d cells and %d row widths belong to no table", len(columns), len(cells), len(rowWidth))
	}
	for i, id := range cols["doc.id"] {
		items = append(items, datalake.BatchItem{Doc: &doc.Document{
			ID: id, Title: cols["doc.title"][i], EntityID: cols["doc.entity"][i],
			SourceID: cols["doc.source"][i], Text: cols["doc.text"][i],
		}})
	}
	for i, subject := range cols["triple.subject"] {
		items = append(items, datalake.BatchItem{Triple: &kg.Triple{
			Subject: subject, Predicate: cols["triple.predicate"][i],
			Object: cols["triple.object"][i], SourceID: cols["triple.source"][i],
		}})
	}

	lake, err := datalake.Load(sources, items, opts...)
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	return lake, nil
}
