package datalake

import (
	"fmt"
	"iter"
	"maps"
	"strconv"
	"strings"

	"repro/internal/doc"
	"repro/internal/table"
)

// catalog holds a lake's tables and documents: those up to the last
// checkpoint in sealed segments, off the Go heap, and the tail since then
// as Go objects. One map per modality takes an ID to its position in
// insertion order; the first sealedTables (sealedDocs) positions are the
// segments' instances, in segment order, and the rest index the tail.
//
// Every slice only ever grows at its end, so a fork shares them cut to
// their length (an append by the lake cannot reach what the fork sees);
// only the maps are copied.
type catalog struct {
	segs                     []*segment
	sealedTables, sealedDocs int
	tableOrd, docOrd         map[string]int
	tableIDs, docIDs         []string
	tables                   []*table.Table
	docs                     []*doc.Document
}

func newCatalog() catalog {
	return catalog{tableOrd: make(map[string]int), docOrd: make(map[string]int)}
}

// fork returns a copy that later additions to c do not change.
func (c *catalog) fork() *catalog {
	return &catalog{
		segs:         c.segs[:len(c.segs):len(c.segs)],
		sealedTables: c.sealedTables,
		sealedDocs:   c.sealedDocs,
		tableOrd:     maps.Clone(c.tableOrd),
		docOrd:       maps.Clone(c.docOrd),
		tableIDs:     c.tableIDs[:len(c.tableIDs):len(c.tableIDs)],
		docIDs:       c.docIDs[:len(c.docIDs):len(c.docIDs)],
		tables:       c.tables[:len(c.tables):len(c.tables)],
		docs:         c.docs[:len(c.docs):len(c.docs)],
	}
}

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

// adopt returns c with seg, which holds the first tables and documents of
// c's tail, in place of those Go objects. The tail is copied, so the
// objects are unreachable from the result.
func (c catalog) adopt(seg *segment) catalog {
	c.segs = append(c.segs[:len(c.segs):len(c.segs)], seg)
	c.sealedTables += seg.numTables()
	c.sealedDocs += seg.numDocs()
	c.tables = append([]*table.Table(nil), c.tables[seg.numTables():]...)
	c.docs = append([]*doc.Document(nil), c.docs[seg.numDocs():]...)
	return c
}

// tableSegment finds the segment holding the table at position ord, and
// the table's ordinal in it; nil when the table is in the tail.
func (c *catalog) tableSegment(ord int) (*segment, int) {
	if ord >= c.sealedTables {
		return nil, ord - c.sealedTables
	}
	for _, s := range c.segs {
		if ord < s.numTables() {
			return s, ord
		}
		ord -= s.numTables()
	}
	panic("datalake: table position past the segments")
}

func (c *catalog) hasTable(id string) bool {
	_, ok := c.tableOrd[id]
	return ok
}

func (c *catalog) hasDoc(id string) bool {
	_, ok := c.docOrd[id]
	return ok
}

// table returns the table with the given ID: a copy when it is sealed.
func (c *catalog) table(id string) (*table.Table, bool) {
	ord, ok := c.tableOrd[id]
	if !ok {
		return nil, false
	}
	if s, i := c.tableSegment(ord); s != nil {
		return s.table(i), true
	}
	return c.tables[ord-c.sealedTables], true
}

// tuple returns row of the table with the given ID; ok reports whether
// the table exists, and inRange whether it has that row.
func (c *catalog) tuple(id string, row int) (tp table.Tuple, ok, inRange bool) {
	ord, ok := c.tableOrd[id]
	if !ok {
		return table.Tuple{}, false, false
	}
	if s, i := c.tableSegment(ord); s != nil {
		tp, inRange = s.tuple(i, row)
		return tp, true, inRange
	}
	tp, inRange = c.tables[ord-c.sealedTables].TupleAt(row)
	return tp, true, inRange
}

// document returns the document with the given ID: a copy when it is
// sealed.
func (c *catalog) document(id string) (*doc.Document, bool) {
	ord, ok := c.docOrd[id]
	if !ok {
		return nil, false
	}
	if ord >= c.sealedDocs {
		return c.docs[ord-c.sealedDocs], true
	}
	for _, s := range c.segs {
		if ord < s.numDocs() {
			return s.document(ord), true
		}
		ord -= s.numDocs()
	}
	panic("datalake: document position past the segments")
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

// resolve maps a table, tuple or text instance ID to its content. A View
// passes its version, which its not-found errors name.
func (c *catalog) resolve(instanceID string, kind Kind, view *uint64) (Instance, error) {
	at := func() string {
		if view == nil {
			return ""
		}
		return fmt.Sprintf(" at version %d", *view)
	}
	switch kind {
	case KindTable:
		id := strings.TrimPrefix(instanceID, "table:")
		t, ok := c.table(id)
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
		tp, ok, inRange := c.tuple(tableID, row)
		if !ok {
			return Instance{}, fmt.Errorf("datalake: unknown table %q%s", tableID, at())
		}
		if !inRange {
			return Instance{}, fmt.Errorf("datalake: row %d out of range for table %q", row, tableID)
		}
		return Instance{ID: instanceID, Kind: KindTuple, SourceID: tp.SourceID, Tuple: &tp}, nil
	case KindText:
		id := strings.TrimPrefix(instanceID, "text:")
		d, ok := c.document(id)
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

// sealTail builds the segment that holds c's tail.
func (c *catalog) sealTail() (*segment, error) {
	tail := catalog{tables: c.tables, docs: c.docs}
	ncols, nrows, widths := tail.shape()
	return newSegment(Columns{Strings: tail.column, NCols: ncols, NRows: nrows, RowWidth: widths})
}
