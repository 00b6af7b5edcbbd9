package datalake

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/doc"
	"repro/internal/table"
)

// CatalogColumns are the string columns of the tables and documents of a
// catalog, in the order a stored catalog holds them: one string per table
// (id, caption, source), the column names and the cells of every table
// back to back, and one string per document.
var CatalogColumns = []string{
	"table.id", "table.caption", "table.source", "table.columns", "table.cells",
	"doc.id", "doc.title", "doc.entity", "doc.source", "doc.text",
}

// Columns is a run of tables and documents in column form. Strings yields
// the named column of CatalogColumns (each column is read three times);
// NCols and NRows give each table's column and row count, and RowWidth
// each row's cell count, or is nil when every row of a table is as wide
// as its header.
type Columns struct {
	Strings      func(name string) iter.Seq[string]
	NCols, NRows []uint32
	RowWidth     []uint32
}

// segment is a sealed run of tables and documents: the columns of
// CatalogColumns in one binfmt container built off the Go heap
// (binfmt.Writer.Build), with three offset columns that let a table be
// found without a scan — table.colstart and table.rowstart (one entry per
// table, plus one) say where a table's column names and rows start, and
// table.cellstart (one per row, plus one) where a row's cells start.
//
// What a segment hands out is copied onto the heap, so the segment's
// memory is released by its Reader's cleanup once no lake or View holds
// the segment — except what a borrowing resolve hands out, which views
// the segment's memory and is valid only while its caller keeps the
// segment reachable (see Lake.ResolveBorrowed).
type segment struct {
	r    *binfmt.Reader
	cols [10]binfmt.StringCol // CatalogColumns, in order
	// colStart, rowStart and cellStart view the offset columns.
	colStart, rowStart, cellStart []uint32
}

// The positions of CatalogColumns in segment.cols.
const (
	colTableID = iota
	colCaption
	colTableSource
	colColumns
	colCells
	colDocID
	colTitle
	colEntity
	colDocSource
	colText
)

// segmentBytes is what the live segments hold outside the Go heap.
var segmentBytes atomic.Int64

// SegmentBytes returns the bytes the sealed catalog segments of every lake
// and View hold outside the Go heap: a part of binfmt.BuiltBytes.
func SegmentBytes() int64 { return segmentBytes.Load() }

// newSegment checks c and seals it into a segment. Every count is checked
// against the column it indexes before anything is sized by it, so a
// forged count is an error, never an allocation.
func newSegment(c Columns) (*segment, error) {
	counts := make([]int, len(CatalogColumns))
	for i, name := range CatalogColumns {
		size := 0
		for s := range c.Strings(name) {
			counts[i]++
			size += len(s)
		}
		if size > math.MaxUint32 {
			return nil, fmt.Errorf("column %q holds %d bytes, more than a segment can address", name, size)
		}
	}
	sameCount := func(cols ...int) error {
		for _, i := range cols[1:] {
			if counts[i] != counts[cols[0]] {
				return fmt.Errorf("column %q has %d entries, %q has %d", CatalogColumns[i], counts[i], CatalogColumns[cols[0]], counts[cols[0]])
			}
		}
		return nil
	}
	if err := sameCount(colTableID, colCaption, colTableSource); err != nil {
		return nil, err
	}
	if err := sameCount(colDocID, colTitle, colEntity, colDocSource, colText); err != nil {
		return nil, err
	}
	tables := counts[colTableID]
	if len(c.NCols) != tables || len(c.NRows) != tables {
		return nil, fmt.Errorf("%d tables but %d column counts and %d row counts", tables, len(c.NCols), len(c.NRows))
	}
	var names, rows uint64
	for i := range tables {
		names += uint64(c.NCols[i])
		rows += uint64(c.NRows[i])
	}
	if names != uint64(counts[colColumns]) {
		return nil, fmt.Errorf("tables claim %d column names, the column holds %d", names, counts[colColumns])
	}
	// Every row costs the file a cell or a width entry (a stored catalog
	// lists the widths when a row is empty), which bounds the row offsets
	// below by the container's size.
	cells := uint64(counts[colCells])
	if c.RowWidth != nil && rows != uint64(len(c.RowWidth)) || c.RowWidth == nil && rows > cells {
		return nil, fmt.Errorf("tables claim %d rows, with %d cells and %d row widths", rows, cells, len(c.RowWidth))
	}
	colStart := make([]uint32, tables+1)
	rowStart := make([]uint32, tables+1)
	cellStart := make([]uint32, rows+1)
	var cell uint64
	row := 0
	for i := range tables {
		colStart[i+1] = colStart[i] + c.NCols[i]
		rowStart[i+1] = rowStart[i] + c.NRows[i]
		for range c.NRows[i] {
			width := uint64(c.NCols[i])
			if c.RowWidth != nil {
				width = uint64(c.RowWidth[row])
			}
			if width > cells-cell {
				return nil, fmt.Errorf("table %d claims more cells than the column's %d", i, cells)
			}
			cell += width
			row++
			cellStart[row] = uint32(cell)
		}
	}
	if cell != cells {
		return nil, fmt.Errorf("%d cells belong to no table", cells-cell)
	}

	w := binfmt.NewWriter()
	for _, name := range CatalogColumns {
		w.StringSeq(name, c.Strings(name))
	}
	w.Uint32s("table.colstart", colStart)
	w.Uint32s("table.rowstart", rowStart)
	w.Uint32s("table.cellstart", cellStart)
	r, err := w.Build()
	if err != nil {
		return nil, err
	}
	s := &segment{r: r}
	for i, name := range CatalogColumns {
		if s.cols[i], err = r.Strings(name); err != nil {
			return nil, err
		}
	}
	if s.colStart, err = r.Uint32s("table.colstart"); err != nil {
		return nil, err
	}
	if s.rowStart, err = r.Uint32s("table.rowstart"); err != nil {
		return nil, err
	}
	if s.cellStart, err = r.Uint32s("table.cellstart"); err != nil {
		return nil, err
	}
	if n := r.OffHeapBytes(); n > 0 {
		segmentBytes.Add(n)
		runtime.AddCleanup(r, func(n int64) { segmentBytes.Add(-n) }, n)
	}
	return s, nil
}

func (s *segment) numTables() int { return s.cols[colTableID].Len() }
func (s *segment) numDocs() int   { return s.cols[colDocID].Len() }

// numRows returns the rows of all the segment's tables.
func (s *segment) numRows() int { return len(s.cellStart) - 1 }

// strings copies column col onto the heap, as one allocation for its
// bytes and one for its strings.
func (s *segment) strings(col int) []string {
	c := s.cols[col]
	if c.Len() == 0 {
		return nil
	}
	out := newCopyOut(c.Span(0, c.Len()))
	strs := make([]string, c.Len())
	out.strings(strs, c.Offsets(0, c.Len()))
	runtime.KeepAlive(s)
	return strs
}

// copyOut copies spans of the segment's columns into one heap string and
// cuts it back into their strings.
type copyOut struct {
	str string
	at  int
}

func newCopyOut(spans ...[]byte) copyOut {
	n := 0
	for _, b := range spans {
		n += len(b)
	}
	var b strings.Builder
	b.Grow(n)
	for _, span := range spans {
		b.Write(span)
	}
	return copyOut{str: b.String()}
}

// next cuts the next n bytes.
func (c *copyOut) next(n int) string {
	c.at += n
	return c.str[c.at-n : c.at]
}

// strings cuts the strings that offs bounds (see binfmt.StringCol.Offsets),
// which are next, into dst.
func (c *copyOut) strings(dst []string, offs []uint32) {
	offs = offs[:len(dst)+1]
	base, str := offs[0], c.str[c.at:]
	for k := range dst {
		dst[k] = str[offs[k]-base : offs[k+1]-base]
	}
	c.at += int(offs[len(dst)] - base)
}

// table copies table i onto the heap, as a stored catalog loads it: no
// column names, no rows or an empty row are nil. It takes one allocation
// each for the bytes, the strings, the rows and the Table. With b it
// copies nothing: the strings view the segment's memory, and the rest
// comes from b.
func (s *segment) table(i int, b *borrowBuf) *table.Table {
	r0, r1 := int(s.rowStart[i]), int(s.rowStart[i+1])
	k0 := int(s.cellStart[r0])
	head, cols, cells := s.rows(i, r0, r1, b)
	t := b.table()
	*t = table.Table{ID: head[0], Caption: head[1], SourceID: head[2], Columns: cols}
	if r1 > r0 {
		t.Rows = b.rowSlices(r1 - r0)
		for r := range t.Rows {
			a, e := int(s.cellStart[r0+r])-k0, int(s.cellStart[r0+r+1])-k0
			if e > a {
				t.Rows[r] = cells[a:e:e]
			}
		}
	}
	runtime.KeepAlive(s)
	return t
}

// tuple copies row of table i onto the heap, as table copies a table: the
// table's header and that row, nothing else, in one allocation for the
// bytes and one for the strings.
func (s *segment) tuple(i, row int, b *borrowBuf) (*table.Tuple, bool) {
	r0 := int(s.rowStart[i])
	if row < 0 || row >= int(s.rowStart[i+1])-r0 {
		return nil, false
	}
	head, cols, cells := s.rows(i, r0+row, r0+row+1, b)
	tp := b.tuple()
	*tp = table.Tuple{TableID: head[0], Caption: head[1], SourceID: head[2], Columns: cols}
	if len(cells) > 0 {
		tp.Values = cells
	}
	return tp, true
}

// rows returns table i's ID, caption and source, its column names (nil
// when it has none) and the cells of rows ra to rb-1 (segment-wide row
// numbers): copied onto the heap in one allocation for the bytes and one
// for the column names and cells, or with b as views of the segment's
// memory in string headers from b.
func (s *segment) rows(i, ra, rb int, b *borrowBuf) (head [3]string, cols, cells []string) {
	c0, c1 := int(s.colStart[i]), int(s.colStart[i+1])
	k0, k1 := int(s.cellStart[ra]), int(s.cellStart[rb])
	id, caption, source := s.cols[colTableID].Bytes(i), s.cols[colCaption].Bytes(i), s.cols[colTableSource].Bytes(i)
	colSpan, cellSpan := s.cols[colColumns].Span(c0, c1), s.cols[colCells].Span(k0, k1)
	strs := b.strings(c1 - c0 + k1 - k0)
	if b == nil {
		out := newCopyOut(id, caption, source, colSpan, cellSpan)
		head = [3]string{out.next(len(id)), out.next(len(caption)), out.next(len(source))}
		out.strings(strs[:c1-c0], s.cols[colColumns].Offsets(c0, c1))
		out.strings(strs[c1-c0:], s.cols[colCells].Offsets(k0, k1))
	} else {
		head = [3]string{view(id), view(caption), view(source)}
		colOut, cellOut := copyOut{str: view(colSpan)}, copyOut{str: view(cellSpan)}
		colOut.strings(strs[:c1-c0], s.cols[colColumns].Offsets(c0, c1))
		cellOut.strings(strs[c1-c0:], s.cols[colCells].Offsets(k0, k1))
	}
	runtime.KeepAlive(s)
	if c1 > c0 {
		cols = strs[: c1-c0 : c1-c0]
	}
	return head, cols, strs[c1-c0:]
}

// document copies document i onto the heap, or with b views it.
func (s *segment) document(i int, b *borrowBuf) *doc.Document {
	var f [5]string
	if b == nil {
		var spans [5][]byte
		for j := range spans {
			spans[j] = s.cols[colDocID+j].Bytes(i)
		}
		out := newCopyOut(spans[:]...)
		for j := range f {
			f[j] = out.next(len(spans[j]))
		}
	} else {
		for j := range f {
			f[j] = view(s.cols[colDocID+j].Bytes(i))
		}
	}
	d := b.document()
	*d = doc.Document{ID: f[0], Title: f[1], EntityID: f[2], SourceID: f[3], Text: f[4]}
	runtime.KeepAlive(s)
	return d
}

// column yields column col of CatalogColumns as views of the segment's
// memory, valid only while the segment is reachable.
func (s *segment) column(col int, yield func(string) bool) bool {
	c := s.cols[col]
	for i := range c.Len() {
		b := c.Bytes(i)
		if !yield(unsafe.String(unsafe.SliceData(b), len(b))) {
			return false
		}
	}
	return true
}

// shape appends each table's column and row count and each row's width.
func (s *segment) shape(ncols, nrows, widths []uint32) ([]uint32, []uint32, []uint32) {
	for i := range s.numTables() {
		ncols = append(ncols, s.colStart[i+1]-s.colStart[i])
		nrows = append(nrows, s.rowStart[i+1]-s.rowStart[i])
	}
	for r := range s.numRows() {
		widths = append(widths, s.cellStart[r+1]-s.cellStart[r])
	}
	return ncols, nrows, widths
}
