package datalake

import (
	"fmt"
	"iter"
	"maps"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/doc"
	"repro/internal/table"
)

// catalog holds a lake's tables and documents: those up to the last seal
// in sealed segments, off the Go heap, and the tail since then as Go
// objects. One map per modality takes an ID to its position in insertion
// order; the first last(tableEnd) (last(docEnd)) positions are the
// segments' instances, in segment order, and the rest index the tail.
//
// Every slice only ever grows at its end, or is replaced, so a fork shares
// them cut to their length (an append by the lake cannot reach what the
// fork sees); only the maps are copied.
type catalog struct {
	segs []*segment
	// tableEnd[i] and docEnd[i] count the tables and documents of
	// segs[:i+1], so a position finds its segment by binary search.
	tableEnd, docEnd []int
	tableOrd, docOrd map[string]int
	tableIDs, docIDs []string
	tables           []*table.Table
	docs             []*doc.Document
}

func newCatalog() catalog {
	return catalog{tableOrd: make(map[string]int), docOrd: make(map[string]int)}
}

// last is the count of instances of every segment ends counts.
func last(ends []int) int {
	if len(ends) == 0 {
		return 0
	}
	return ends[len(ends)-1]
}

// fork returns a copy that later additions to c do not change.
func (c *catalog) fork() *catalog {
	return &catalog{
		segs:     cut(c.segs),
		tableEnd: cut(c.tableEnd),
		docEnd:   cut(c.docEnd),
		tableOrd: maps.Clone(c.tableOrd),
		docOrd:   maps.Clone(c.docOrd),
		tableIDs: cut(c.tableIDs),
		docIDs:   cut(c.docIDs),
		tables:   cut(c.tables),
		docs:     cut(c.docs),
	}
}

// cut returns s with its capacity cut to its length, so an append copies.
func cut[S ~[]E, E any](s S) S { return s[:len(s):len(s)] }

func (c *catalog) addTable(t *table.Table) {
	c.tableOrd[t.ID] = len(c.tableIDs)
	c.tableIDs = append(c.tableIDs, t.ID)
	c.tables = append(c.tables, t)
}

func (c *catalog) addDoc(d *doc.Document) {
	c.docOrd[d.ID] = len(c.docIDs)
	c.docIDs = append(c.docIDs, d.ID)
	c.docs = append(c.docs, d)
}

// tablePayload is the bytes of a table's strings.
func tablePayload(t *table.Table) int {
	n := len(t.ID) + len(t.Caption) + len(t.SourceID)
	for _, c := range t.Columns {
		n += len(c)
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			n += len(cell)
		}
	}
	return n
}

// docPayload is the bytes of a document's strings.
func docPayload(d *doc.Document) int {
	return len(d.ID) + len(d.Title) + len(d.EntityID) + len(d.SourceID) + len(d.Text)
}

// tailHeapBytes estimates the Go heap the tail holds: the payload, a
// string header per string, a slice header per row, each object's struct,
// and per instance its catalog entries (ID list slot, map entry, pointer).
func (c *catalog) tailHeapBytes() int64 {
	const strHdr, sliceHdr, entry = 16, 24, 16 + 40 + 8
	var n int64
	for _, t := range c.tables {
		n += int64(tablePayload(t)) + int64(unsafe.Sizeof(*t)) + entry + strHdr*int64(len(t.Columns)) + sliceHdr*int64(len(t.Rows))
		for _, row := range t.Rows {
			n += strHdr * int64(len(row))
		}
	}
	for _, d := range c.docs {
		n += int64(docPayload(d)) + int64(unsafe.Sizeof(*d)) + entry
	}
	return n
}

// withSegs returns c over segs, which hold c's segments' instances and
// then the first tables and documents of c's tail, in place of those Go
// objects. The tail is copied, so the objects are unreachable from the
// result.
func (c catalog) withSegs(segs []*segment) catalog {
	c.segs, c.tableEnd, c.docEnd = segs, make([]int, len(segs)), make([]int, len(segs))
	tables, docs := 0, 0
	for i, s := range segs {
		tables += s.numTables()
		docs += s.numDocs()
		c.tableEnd[i], c.docEnd[i] = tables, docs
	}
	c.tables = append([]*table.Table(nil), c.tables[tables-(len(c.tableIDs)-len(c.tables)):]...)
	c.docs = append([]*doc.Document(nil), c.docs[docs-(len(c.docIDs)-len(c.docs)):]...)
	return c
}

// findSeg returns the segment holding position ord of ends and ord's
// ordinal in it, or -1 and ord's index in the tail.
func findSeg(ends []int, ord int) (int, int) {
	i := sort.SearchInts(ends, ord+1) // the first segment ending past ord
	if i == len(ends) {
		return -1, ord - last(ends)
	}
	if i > 0 {
		ord -= ends[i-1]
	}
	return i, ord
}

// tableSegment finds the segment holding the table at position ord, and
// the table's ordinal in it; nil and its index in the tail when the table
// is in the tail.
func (c *catalog) tableSegment(ord int) (*segment, int) {
	i, ord := findSeg(c.tableEnd, ord)
	if i < 0 {
		return nil, ord
	}
	return c.segs[i], ord
}

func (c *catalog) hasTable(id string) bool {
	_, ok := c.tableOrd[id]
	return ok
}

func (c *catalog) hasDoc(id string) bool {
	_, ok := c.docOrd[id]
	return ok
}

// table returns the table with the given ID: a copy when it is sealed,
// or with b a view of its segment (see borrowBuf).
func (c *catalog) table(id string, b *borrowBuf) (*table.Table, bool) {
	ord, ok := c.tableOrd[id]
	if !ok {
		return nil, false
	}
	s, i := c.tableSegment(ord)
	if s == nil {
		return c.tables[i], true
	}
	return s.table(i, b), true
}

// tuple returns row of the table with the given ID, as table does the
// table; ok reports whether the table exists, and inRange whether it has
// that row. Borrowed from the tail, the tuple's values are the row itself.
func (c *catalog) tuple(id string, row int, b *borrowBuf) (tp *table.Tuple, ok, inRange bool) {
	ord, ok := c.tableOrd[id]
	if !ok {
		return nil, false, false
	}
	s, i := c.tableSegment(ord)
	if s != nil {
		tp, inRange = s.tuple(i, row, b)
		return tp, true, inRange
	}
	t := c.tables[i]
	if row < 0 || row >= len(t.Rows) {
		return nil, true, false
	}
	if b == nil {
		cp, _ := t.TupleAt(row)
		return &cp, true, true
	}
	tp = b.tuple()
	*tp = table.Tuple{TableID: t.ID, Caption: t.Caption, Columns: t.Columns, Values: t.Rows[row], SourceID: t.SourceID}
	return tp, true, true
}

// document returns the document with the given ID, as table does the
// table.
func (c *catalog) document(id string, b *borrowBuf) (*doc.Document, bool) {
	ord, ok := c.docOrd[id]
	if !ok {
		return nil, false
	}
	s, i := findSeg(c.docEnd, ord)
	if s < 0 {
		return c.docs[i], true
	}
	return c.segs[s].document(i, b), true
}

// numTuples counts the rows of every table.
func (c *catalog) numTuples() int {
	n := 0
	for _, s := range c.segs {
		n += s.numRows()
	}
	for _, t := range c.tables {
		n += t.NumRows()
	}
	return n
}

// resolve maps a table, tuple or text instance ID to its content, copied
// out of its segment, or with b borrowed (see borrowBuf). A View passes
// its version, which its not-found errors name.
func (c *catalog) resolve(instanceID string, kind Kind, view *uint64, b *borrowBuf) (Instance, error) {
	at := func() string {
		if view == nil {
			return ""
		}
		return fmt.Sprintf(" at version %d", *view)
	}
	switch kind {
	case KindTable:
		id := strings.TrimPrefix(instanceID, "table:")
		t, ok := c.table(id, b)
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown table %q%s", id, at())
		}
		return Instance{ID: instanceID, Kind: KindTable, SourceID: t.SourceID, Table: t}, nil
	case KindTuple:
		rest := strings.TrimPrefix(instanceID, "tuple:")
		hash := strings.LastIndexByte(rest, '#')
		if hash < 0 {
			return Instance{}, fmt.Errorf("datalake: malformed tuple id %q", instanceID)
		}
		tableID := rest[:hash]
		row, err := strconv.Atoi(rest[hash+1:])
		if err != nil {
			return Instance{}, fmt.Errorf("datalake: malformed tuple row in %q: %w", instanceID, err)
		}
		tp, ok, inRange := c.tuple(tableID, row, b)
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown table %q%s", tableID, at())
		}
		if !inRange {
			return Instance{}, fmt.Errorf("datalake: row %d out of range for table %q", row, tableID)
		}
		return Instance{ID: instanceID, Kind: KindTuple, SourceID: tp.SourceID, Tuple: tp}, nil
	case KindText:
		id := strings.TrimPrefix(instanceID, "text:")
		d, ok := c.document(id, b)
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown document %q%s", id, at())
		}
		return Instance{ID: instanceID, Kind: KindText, SourceID: d.SourceID, Doc: d}, nil
	default:
		return Instance{}, fmt.Errorf("datalake: unhandled kind %v", kind)
	}
}

// column yields column name of CatalogColumns over every table or
// document in insertion order: the segments' first, then the tail's.
// Strings from a segment are views of its memory, valid only while c is
// reachable.
func (c *catalog) column(name string) iter.Seq[string] {
	col := -1
	for i, n := range CatalogColumns {
		if n == name {
			col = i
		}
	}
	return func(yield func(string) bool) {
		for _, s := range c.segs {
			if !s.column(col, yield) {
				return
			}
		}
		tailColumn(col, c.tables, c.docs)(yield)
	}
}

// tailColumn yields column col of CatalogColumns over Go objects.
func tailColumn(col int, tables []*table.Table, docs []*doc.Document) iter.Seq[string] {
	return func(yield func(string) bool) {
		each := func(vals ...string) bool {
			for _, v := range vals {
				if !yield(v) {
					return false
				}
			}
			return true
		}
		if col >= colDocID {
			for _, d := range docs {
				if !each([...]string{d.ID, d.Title, d.EntityID, d.SourceID, d.Text}[col-colDocID]) {
					return
				}
			}
			return
		}
		for _, t := range tables {
			ok := true
			switch col {
			case colColumns:
				ok = each(t.Columns...)
			case colCells:
				for _, row := range t.Rows {
					if ok = each(row...); !ok {
						break
					}
				}
			default:
				ok = each([...]string{t.ID, t.Caption, t.SourceID}[col])
			}
			if !ok {
				return
			}
		}
	}
}

// shape returns each table's column and row count and each row's width, in
// insertion order.
func (c *catalog) shape() (ncols, nrows, widths []uint32) {
	ncols = make([]uint32, 0, len(c.tableIDs))
	nrows = make([]uint32, 0, len(c.tableIDs))
	for _, s := range c.segs {
		ncols, nrows, widths = s.shape(ncols, nrows, widths)
	}
	for _, t := range c.tables {
		ncols = append(ncols, uint32(len(t.Columns)))
		nrows = append(nrows, uint32(len(t.Rows)))
		for _, row := range t.Rows {
			widths = append(widths, uint32(len(row)))
		}
	}
	return ncols, nrows, widths
}

// sealTail returns the segments that hold c's segments' instances and
// its tail: one new segment for the tail, then the two newest merged while
// the newer holds at least half the instances of the older, so the list
// stays O(log n) long and an instance is copied into a new segment O(log n)
// times. The segments c has are unchanged.
func (c *catalog) sealTail() ([]*segment, error) {
	tail, err := sealed(catalog{tables: c.tables, docs: c.docs})
	if err != nil {
		return nil, err
	}
	segs := append(cut(c.segs), tail)
	size := func(s *segment) int { return s.numTables() + s.numDocs() }
	for n := len(segs); n >= 2 && 2*size(segs[n-1]) >= size(segs[n-2]); n = len(segs) {
		merged, err := sealed(catalog{segs: segs[n-2:]})
		if err != nil {
			return nil, err
		}
		segs = append(segs[:n-2:n-2], merged)
	}
	return segs, nil
}

// sealed builds one segment of what c holds.
func sealed(c catalog) (*segment, error) {
	ncols, nrows, widths := c.shape()
	return newSegment(Columns{Strings: c.column, NCols: ncols, NRows: nrows, RowWidth: widths})
}
