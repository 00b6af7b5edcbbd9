package durable

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/kg"
	"repro/internal/lakeio"
	"repro/internal/par"
)

// A checkpoint (and a pin) stores its catalog as one binfmt container, the
// format of the index shards beside it: every table, document and triple
// of the lake as a handful of string and integer columns, each CRC'd, in
// one file written through the store's filesystem — not a file per object.
// The catalog is read whole, never mapped, so its string columns are
// stored deflated (binfmt's DeflatedStrings): they are mostly repeats.
//
//	format                          JSON 2; absent in format 1, whose
//	                                string columns are packed, not deflated
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
//
// The columns are also the in-memory form of every table, document and
// triple up to the lake's last seal: the lake seals the ones committed
// since the one before into a segment as they pass datalake.SealBytes, and
// at every fork, which holds these columns packed, not deflated, off the
// Go heap, with offsets to find a table's column names, rows and cells and
// an index of the triples by folded subject; and an open inflates the
// file's columns straight into one such segment (datalake.LoadColumns).
// This file is written from a View's segments, byte for byte what writing
// the same catalog from Go objects gives, however many segments hold it.

// catalogFile is the container's name inside a checkpoint or pin directory.
const catalogFile = "catalog.vaib"

// catalogFormat is the container layout writeCatalog writes. Format 1 is
// user data already on disk, so it keeps loading; the next checkpoint or
// pin rewrites it.
const catalogFormat = 2

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
// the directory's pinned version), its tables and documents in one sealed
// segment. A directory written before the container existed holds the
// lakeio layout instead and loads through it, as Go objects, and a
// format-1 container loads too; the next checkpoint rewrites either as
// format 2. A container that is truncated or fails a checksum is an
// error, never a partial lake.
func (s *Store) LoadCatalog(dir string) (*datalake.Lake, error) {
	data, err := s.fs.ReadFile(filepath.Join(dir, catalogFile))
	if errors.Is(err, os.ErrNotExist) {
		return lakeio.Load(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read catalog: %w", err)
	}
	return decodeCatalog(data)
}

func encodeCatalog(view *datalake.View) (*binfmt.Writer, error) {
	w := binfmt.NewWriter()
	if err := w.JSON("format", catalogFormat); err != nil {
		return nil, fmt.Errorf("durable: encode catalog: %w", err)
	}
	if err := w.JSON("sources", view.Sources()); err != nil {
		return nil, fmt.Errorf("durable: encode catalog: %w", err)
	}
	for _, name := range catalogStringColumns {
		w.DeflatedStringSeq(name, view.Column(name))
	}
	ncols, nrows, rowWidth := view.Shape()
	ragged := false
	row := 0
	for i, n := range nrows {
		for _, width := range rowWidth[row : row+int(n)] {
			// A zero-width row counts as ragged so that every row costs
			// the file something (the reader bounds its allocations by it).
			ragged = ragged || width != ncols[i] || width == 0
		}
		row += int(n)
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
var catalogStringColumns = append(append([]string(nil), datalake.CatalogColumns...), kg.ColumnNames...)

// decodeCatalog loads a lake from container bytes: its tables, documents
// and triples inflate into one sealed segment (datalake.LoadColumns), which
// checks every count against the column it indexes before anything is
// sized by it, so a container whose sections pass their CRCs but disagree
// with each other (only a bug or a forged file can produce one) is still
// an error.
func decodeCatalog(data []byte) (*datalake.Lake, error) {
	r, err := binfmt.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	column := r.PackedStrings // format 1: no format section
	if _, err := r.Bytes("format"); err == nil {
		var format int
		if err := r.JSON("format", &format); err != nil {
			return nil, fmt.Errorf("durable: catalog: %w", err)
		}
		if format != catalogFormat {
			return nil, fmt.Errorf("durable: catalog: format %d not supported", format)
		}
		column = r.DeflatedStrings
	}
	var sources []datalake.Source
	if err := r.JSON("sources", &sources); err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	// The columns are independent, so they inflate side by side: the load
	// takes about as long as its largest column.
	strs := make([][]string, len(catalogStringColumns))
	errs := make([]error, len(catalogStringColumns))
	par.For(len(catalogStringColumns), len(catalogStringColumns), func(i int) {
		strs[i], errs[i] = column(catalogStringColumns[i])
	})
	cols := make(map[string][]string, len(catalogStringColumns))
	for i, name := range catalogStringColumns {
		if errs[i] != nil {
			return nil, fmt.Errorf("durable: catalog: %w", errs[i])
		}
		cols[name] = strs[i]
	}
	tables := datalake.Columns{Strings: func(name string) iter.Seq[string] { return slices.Values(cols[name]) }}
	for name, dst := range map[string]*[]uint32{"table.ncols": &tables.NCols, "table.nrows": &tables.NRows, "table.rowwidth": &tables.RowWidth} {
		if *dst, err = r.Uint32s(name); err != nil {
			return nil, fmt.Errorf("durable: catalog: %w", err)
		}
	}
	lake, err := datalake.LoadColumns(sources, tables)
	if err != nil {
		return nil, fmt.Errorf("durable: catalog: %w", err)
	}
	return lake, nil
}
