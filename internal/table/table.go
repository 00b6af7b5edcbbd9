// Package table implements the relational substrate of the multi-modal data
// lake: web-table style tables with a caption, named columns, and string
// cells, plus typed access helpers, serialization used in prompt templates,
// key inference, and CSV interchange.
package table

import (
	"fmt"
	"strings"

	"repro/internal/textutil"
)

// Missing is the sentinel for an absent cell value, matching the paper's
// prompt template ("Please fill the missing values, annotated by NaN").
const Missing = "NaN"

// Table is a web-table style relation: a caption (table name), named
// columns, and rows of string cells. Cells are strings because lake tables
// are scraped and untyped; numeric interpretation happens lazily via
// textutil.ParseNumber.
type Table struct {
	// ID uniquely identifies the table within its data lake.
	ID string
	// Caption is the table name (e.g. "1954 u.s. open (golf)").
	Caption string
	// Columns are the attribute names, in order.
	Columns []string
	// Rows holds the cell values; every row has len(Columns) cells.
	Rows [][]string
	// SourceID identifies the dataset/source this table came from, used by
	// the trust module.
	SourceID string
}

// New returns a table with the given caption and columns and no rows.
func New(id, caption string, columns []string) *Table {
	return &Table{ID: id, Caption: caption, Columns: columns}
}

// AppendRow adds a row. It returns an error when the arity does not match
// the schema, which would otherwise corrupt downstream cell addressing.
func (t *Table) AppendRow(cells []string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("table %s: row arity %d != schema arity %d", t.ID, len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAppendRow adds a row and panics on arity mismatch. For generators and
// tests where the arity is statically correct.
func (t *Table) MustAppendRow(cells ...string) {
	if err := t.AppendRow(cells); err != nil {
		panic(err)
	}
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// ColumnIndex returns the index of the column whose folded name equals name,
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	want := textutil.Fold(name)
	for i, c := range t.Columns {
		if textutil.Fold(c) == want {
			return i
		}
	}
	return -1
}

// Column returns a copy of all values in column col.
func (t *Table) Column(col int) []string {
	if col < 0 || col >= len(t.Columns) {
		return nil
	}
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[col]
	}
	return out
}

// IsNumericColumn reports whether at least 80% of the non-missing cells in
// column col parse as numbers. Web tables are noisy, so we use a threshold
// rather than requiring every cell to parse.
func (t *Table) IsNumericColumn(col int) bool {
	if col < 0 || col >= len(t.Columns) || len(t.Rows) == 0 {
		return false
	}
	num, tot := 0, 0
	for _, r := range t.Rows {
		c := r[col]
		if c == "" || c == Missing {
			continue
		}
		tot++
		if textutil.IsNumeric(c) {
			num++
		}
	}
	if tot == 0 {
		return false
	}
	return float64(num)/float64(tot) >= 0.8
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	nt := &Table{
		ID:       t.ID,
		Caption:  t.Caption,
		Columns:  append([]string(nil), t.Columns...),
		SourceID: t.SourceID,
	}
	nt.Rows = make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		nt.Rows[i] = append([]string(nil), r...)
	}
	return nt
}

// String renders the table in the pipe-delimited form the paper's prompt
// templates and Figure 4 use.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Caption)
	b.WriteByte('\n')
	b.WriteString("| ")
	b.WriteString(strings.Join(t.Columns, " | "))
	b.WriteString(" |\n")
	for _, r := range t.Rows {
		b.WriteString("| ")
		b.WriteString(strings.Join(r, " | "))
		b.WriteString(" |\n")
	}
	return b.String()
}

// SerializeForIndex flattens the table (caption, columns, cells) into a
// single string for content-based indexing, mirroring the paper's
// "serialized as strings and then indexed by Elasticsearch".
func (t *Table) SerializeForIndex() string {
	var b strings.Builder
	b.WriteString(t.Caption)
	b.WriteByte(' ')
	b.WriteString(strings.Join(t.Columns, " "))
	for _, r := range t.Rows {
		b.WriteByte(' ')
		b.WriteString(strings.Join(r, " "))
	}
	return b.String()
}

// Tuple is one row of a table together with enough context (caption and
// column names) to be interpreted stand-alone. It is both a unit of lake
// data and a unit of generated data.
type Tuple struct {
	// TableID is the table the tuple belongs to (empty for generated tuples
	// not yet attributed to a table).
	TableID string
	// Caption is the owning table's caption.
	Caption string
	// Columns are the attribute names.
	Columns []string
	// Values are the cell values, len == len(Columns).
	Values []string
	// SourceID identifies the originating dataset for trust scoring.
	SourceID string
}

// TupleAt extracts row i as a stand-alone Tuple (values are copied).
func (t *Table) TupleAt(i int) (Tuple, bool) {
	if i < 0 || i >= len(t.Rows) {
		return Tuple{}, false
	}
	return Tuple{
		TableID:  t.ID,
		Caption:  t.Caption,
		Columns:  t.Columns,
		Values:   append([]string(nil), t.Rows[i]...),
		SourceID: t.SourceID,
	}, true
}

// Value returns the tuple's value for the named column; ok is false when the
// column is absent.
func (tp Tuple) Value(column string) (string, bool) {
	want := textutil.Fold(column)
	for i, c := range tp.Columns {
		if textutil.Fold(c) == want {
			return tp.Values[i], true
		}
	}
	return "", false
}

// WithValue returns a copy of the tuple with the named column set to v.
func (tp Tuple) WithValue(column, v string) Tuple {
	out := tp
	out.Values = append([]string(nil), tp.Values...)
	want := textutil.Fold(column)
	for i, c := range tp.Columns {
		if textutil.Fold(c) == want {
			out.Values[i] = v
		}
	}
	return out
}

// SerializeForIndex flattens the tuple for content-based indexing.
func (tp Tuple) SerializeForIndex() string {
	var b strings.Builder
	b.WriteString(tp.Caption)
	for i, c := range tp.Columns {
		b.WriteByte(' ')
		b.WriteString(c)
		b.WriteByte(' ')
		b.WriteString(tp.Values[i])
	}
	return b.String()
}

// String renders the tuple as "caption | col=val | ...".
func (tp Tuple) String() string {
	parts := make([]string, 0, len(tp.Columns)+1)
	if tp.Caption != "" {
		parts = append(parts, tp.Caption)
	}
	for i, c := range tp.Columns {
		parts = append(parts, c+"="+tp.Values[i])
	}
	return strings.Join(parts, " | ")
}
