package durable

import (
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/kg"
	"repro/internal/par"
)

// A checkpoint (and a pin) stores its catalog as one binfmt container, the
// format of the index shards beside it: every table, document and triple
// of the lake as a handful of string and integer columns, each CRC'd, in
// one file written through the store's filesystem — not a file per object.
// The catalog is read whole. Its string columns are stored deflated column
// by column, and a column that repeats a few strings many times is stored
// as a dictionary (binfmt's DictStringSeq): its distinct strings once, then
// one ID per value. Which columns are dictionaries is fixed, not tried per
// checkpoint: cells, column names, sources and the triples' subjects and
// predicates repeat (111,109 cells of the default lake hold 14,789
// distinct strings, 13,744 column names 36, 9,044 predicates 1,102), while
// IDs, captions, titles, entities and texts are all or nearly all
// distinct. The triples' objects repeat too little: 2,068 distinct long
// strings among 9,044 deflate to 21.4 KB plain and 22.5 KB as a
// dictionary.
//
//	format                          JSON 3
//	sources                         JSON []datalake.Source
//	table.id/.caption               one string per table, deflated
//	table.source                    one string per table, a dictionary
//	table.ncols/.nrows              one uint per table (binfmt's Uints)
//	table.columns                   column names, tables concatenated, a
//	                                dictionary
//	table.cells                     cells, row-major, tables concatenated, a
//	                                dictionary
//	table.rowwidth                  empty unless some row is not ncols wide:
//	                                then one uint per row, tables concatenated
//	doc.id/.title/.entity/.text     one string per document, deflated
//	doc.source                      one string per document, a dictionary
//	triple.subject/.predicate/.source  one string per triple, a dictionary
//	triple.object                   one string per triple, deflated
//
// Order is the catalog's: tables and documents in insertion order, triples
// in graph order, so a reloaded lake forks to the same View.
//
// The window of formats a build reads is the one it writes and the one
// before: format 3 and format 2, which stored every string column deflated
// and the integer columns as uint32s. The first open of a data directory
// whose checkpoint is at format 2 checkpoints it again (verifai.Open), and
// a pin keeps its format until it is dropped. Format 1 (packed string
// columns, no format section) and the lakeio tree before it no longer
// load.
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

// catalogFormat is the container layout writeCatalog writes; decodeCatalog
// reads it and format 2.
const catalogFormat = 3

// dictColumns are the string columns format 3 stores as dictionaries.
var dictColumns = map[string]bool{
	"table.source": true, "table.columns": true, "table.cells": true, "doc.source": true,
	"triple.subject": true, "triple.predicate": true, "triple.source": true,
}

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
// segment. A container that is truncated, fails a checksum or is in a
// format outside the window is an error, never a partial lake.
func (s *Store) LoadCatalog(dir string) (*datalake.Lake, error) {
	lake, _, err := s.loadCatalog(dir)
	return lake, err
}

// loadCatalog is LoadCatalog that also returns the container's format.
func (s *Store) loadCatalog(dir string) (*datalake.Lake, int, error) {
	data, err := s.fs.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return nil, 0, fmt.Errorf("durable: read catalog: %w", err)
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
		if dictColumns[name] {
			w.DictStringSeq(name, view.Column(name))
		} else {
			w.DeflatedStringSeq(name, view.Column(name))
		}
	}
	ncols, nrows, rowWidth := catalogShape(view)
	w.Uints("table.ncols", ncols)
	w.Uints("table.nrows", nrows)
	w.Uints("table.rowwidth", rowWidth)
	return w, nil
}

// catalogShape is view's Shape as a catalog stores it: the row widths are
// nil unless some row is not as wide as its table's header.
func catalogShape(view *datalake.View) (ncols, nrows, rowWidth []uint32) {
	ncols, nrows, rowWidth = view.Shape()
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
	if !ragged {
		rowWidth = nil
	}
	return ncols, nrows, rowWidth
}

// catalogStringColumns lists the container's string columns in file order.
var catalogStringColumns = append(append([]string(nil), datalake.CatalogColumns...), kg.ColumnNames...)

// decodeCatalog loads a lake from container bytes and returns it with the
// container's format: its tables, documents and triples inflate into one
// sealed segment (datalake.LoadColumns), which checks every count against
// the column it indexes before anything is sized by it, so a container
// whose sections pass their CRCs but disagree with each other (only a bug
// or a forged file can produce one) is still an error.
func decodeCatalog(data []byte) (_ *datalake.Lake, format int, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("durable: catalog: %w", err)
		}
	}()
	r, err := binfmt.NewReader(data)
	if err != nil {
		return nil, 0, err
	}
	if err := r.JSON("format", &format); err != nil {
		return nil, 0, err
	}
	if format != catalogFormat && format != 2 {
		return nil, 0, fmt.Errorf("format %d not supported", format)
	}
	var sources []datalake.Source
	if err := r.JSON("sources", &sources); err != nil {
		return nil, 0, err
	}
	// The columns are independent, so they inflate side by side: the load
	// takes about as long as its largest column.
	strs := make([][]string, len(catalogStringColumns))
	errs := make([]error, len(catalogStringColumns))
	par.For(len(catalogStringColumns), len(catalogStringColumns), func(i int) {
		if name := catalogStringColumns[i]; format == catalogFormat && dictColumns[name] {
			strs[i], errs[i] = r.DictStrings(name)
		} else {
			strs[i], errs[i] = r.DeflatedStrings(name)
		}
	})
	cols := make(map[string][]string, len(catalogStringColumns))
	for i, name := range catalogStringColumns {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		cols[name] = strs[i]
	}
	// The shapes, n values each: uint32s in format 2, and in format 3 at
	// the width binfmt's Uints chose.
	shape := func(name string, n int) ([]uint32, error) {
		if format == 2 {
			return r.Uint32s(name)
		}
		col, err := r.Uints(name, n)
		if err != nil || col.U32 != nil || n == 0 {
			return col.U32, err
		}
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = col.At(i)
		}
		return vals, nil
	}
	tables := datalake.Columns{Strings: func(name string) iter.Seq[string] { return slices.Values(cols[name]) }}
	if tables.NCols, err = shape("table.ncols", len(cols["table.id"])); err != nil {
		return nil, 0, err
	}
	if tables.NRows, err = shape("table.nrows", len(cols["table.id"])); err != nil {
		return nil, 0, err
	}
	rows := 0 // the row widths are empty, or one a row
	if b, _ := r.Bytes("table.rowwidth"); len(b) > 0 {
		for _, n := range tables.NRows {
			rows += int(n)
		}
	}
	if tables.RowWidth, err = shape("table.rowwidth", rows); err != nil {
		return nil, 0, err
	}
	lake, err := datalake.LoadColumns(sources, tables)
	if err != nil {
		return nil, 0, err
	}
	return lake, format, nil
}
