package datalake

import (
	"fmt"
	"iter"
	"maps"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/seglist"
	"repro/internal/table"
)

// catalog holds a lake's tables and documents: those up to the last seal
// in sealed segments, off the Go heap, and the tail since then as Go
// objects. One map per modality takes an ID to its position in insertion
// order; the segments' instances take the first positions, in segment
// order, and the tail's the rest.
// The segments hold the lake's sealed triples too, which its kg.Graph
// searches; the graph holds the triples' tail, and a catalog being sealed
// or viewed carries it in triples.
//
// Every slice only ever grows at its end, or is replaced, so a fork shares
// them cut to their length (an append by the lake cannot reach what the
// fork sees); only the maps are copied.
type catalog struct {
	segs []*segment
	// tableFirst[i] and docFirst[i] are the positions of segs[i]'s first
	// table and document, so a position finds its segment by seglist.Find.
	tableFirst, docFirst []int
	tableOrd, docOrd     map[string]int
	tableIDs, docIDs     []string
	tables               []*table.Table
	docs                 []*doc.Document
	triples              []kg.Triple
}

func newCatalog() catalog {
	return catalog{tableOrd: make(map[string]int), docOrd: make(map[string]int)}
}

// fork returns a copy that later additions to c do not change.
func (c *catalog) fork() *catalog {
	return &catalog{
		segs:       cut(c.segs),
		tableFirst: cut(c.tableFirst),
		docFirst:   cut(c.docFirst),
		tableOrd:   maps.Clone(c.tableOrd),
		docOrd:     maps.Clone(c.docOrd),
		tableIDs:   cut(c.tableIDs),
		docIDs:     cut(c.docIDs),
		tables:     cut(c.tables),
		docs:       cut(c.docs),
		triples:    cut(c.triples),
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

// triplePayload is the bytes of a triple's strings.
func triplePayload(t *kg.Triple) int {
	return len(t.Subject) + len(t.Predicate) + len(t.Object) + len(t.SourceID)
}

// tailHeapBytes estimates the Go heap the tail holds: the payload, a
// string header per string, a slice header per row, each object's struct,
// and per instance its catalog entries (ID list slot, map entry, pointer);
// per triple in triples, its payload, struct and subject index entry.
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
	for i := range c.triples {
		n += int64(triplePayload(&c.triples[i])) + int64(unsafe.Sizeof(c.triples[i])) + 8
	}
	return n
}

// withSegs returns c over segs, which hold c's segments' instances and
// then the first tables and documents of c's tail, in place of those Go
// objects. The tail is copied, so the objects are unreachable from the
// result.
func (c catalog) withSegs(segs []*segment) catalog {
	c.segs, c.tableFirst, c.docFirst = segs, make([]int, len(segs)), make([]int, len(segs))
	tables, docs := 0, 0
	for i, s := range segs {
		c.tableFirst[i], c.docFirst[i] = tables, docs
		tables += s.numTables()
		docs += s.numDocs()
	}
	c.tables = append([]*table.Table(nil), c.tables[tables-(len(c.tableIDs)-len(c.tables)):]...)
	c.docs = append([]*doc.Document(nil), c.docs[docs-(len(c.docIDs)-len(c.docs)):]...)
	return c
}

// at returns the segment holding position ord of a modality whose
// segments start at firsts and whose tail at tailFirst, and ord's ordinal
// in it; nil and ord's index in the tail when it is there.
func (c *catalog) at(firsts []int, tailFirst, ord int) (*segment, int) {
	if ord >= tailFirst {
		return nil, ord - tailFirst
	}
	i := seglist.Find(firsts, ord)
	return c.segs[i], ord - firsts[i]
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
	s, i := c.at(c.tableFirst, len(c.tableIDs)-len(c.tables), ord)
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
	s, i := c.at(c.tableFirst, len(c.tableIDs)-len(c.tables), ord)
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
	s, i := c.at(c.docFirst, len(c.docIDs)-len(c.docs), ord)
	if s == nil {
		return c.docs[i], true
	}
	return s.document(i, b), true
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

// column yields column name of CatalogColumns or kg.ColumnNames over
// every table, document or triple in insertion order: the segments' first,
// then the tail's. Strings from a segment are views of its memory, valid
// only while c is reachable.
func (c *catalog) column(name string) iter.Seq[string] {
	col := -1
	for i, n := range segmentColumns {
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
		tailColumn(col, c)(yield)
	}
}

// tailColumn yields column col of segmentColumns over c's Go objects.
func tailColumn(col int, c *catalog) iter.Seq[string] {
	return func(yield func(string) bool) {
		each := func(vals ...string) bool {
			for _, v := range vals {
				if !yield(v) {
					return false
				}
			}
			return true
		}
		if col >= colSubject {
			for _, t := range c.triples {
				if !each([...]string{t.Subject, t.Predicate, t.Object, t.SourceID}[col-colSubject]) {
					return
				}
			}
			return
		}
		if col >= colDocID {
			for _, d := range c.docs {
				if !each([...]string{d.ID, d.Title, d.EntityID, d.SourceID, d.Text}[col-colDocID]) {
					return
				}
			}
			return
		}
		for _, t := range c.tables {
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
// triples and its tail: one new segment for the tail, then merged by
// seglist.Merge's policy, by instances and triples. The segments c has are
// unchanged.
func (c *catalog) sealTail() ([]*segment, error) {
	tail, err := sealed(catalog{tables: c.tables, docs: c.docs, triples: c.triples})
	if err != nil {
		return nil, err
	}
	return seglist.Merge(c.segs, func(s *segment) int { return s.numTables() + s.numDocs() + s.numTriples() },
		func(segs []*segment) (*segment, error) { return sealed(catalog{segs: segs}) }, tail)
}

// sealed builds one segment of what c holds.
func sealed(c catalog) (*segment, error) {
	ncols, nrows, widths := c.shape()
	return newSegment(Columns{Strings: c.column, NCols: ncols, NRows: nrows, RowWidth: widths})
}
