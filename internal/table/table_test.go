package table

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func golfTable() *Table {
	t := New("t1", "1954 u.s. open (golf)", []string{"place", "player", "country", "money"})
	t.MustAppendRow("t1", "ed furgol", "united states", "6000")
	t.MustAppendRow("t2", "gene littler", "united states", "3600")
	t.MustAppendRow("t5", "bobby locke", "south africa", "960")
	return t
}

func TestAppendRowArity(t *testing.T) {
	tbl := New("x", "cap", []string{"a", "b"})
	if err := tbl.AppendRow([]string{"1", "2"}); err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if err := tbl.AppendRow([]string{"1"}); err == nil {
		t.Error("AppendRow accepted wrong arity")
	}
	if tbl.NumRows() != 1 || tbl.NumCols() != 2 {
		t.Errorf("NumRows/NumCols = %d/%d", tbl.NumRows(), tbl.NumCols())
	}
}

func TestMustAppendRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppendRow did not panic on arity mismatch")
		}
	}()
	New("x", "cap", []string{"a"}).MustAppendRow("1", "2")
}

func TestColumnIndex(t *testing.T) {
	tbl := golfTable()
	if got := tbl.ColumnIndex("player"); got != 1 {
		t.Errorf("ColumnIndex(player) = %d", got)
	}
	if got := tbl.ColumnIndex("Player"); got != 1 {
		t.Errorf("ColumnIndex folded = %d", got)
	}
	if got := tbl.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d", got)
	}
}

func TestCellAndColumn(t *testing.T) {
	tbl := golfTable()
	if v, ok := tbl.Cell(0, 1); !ok || v != "ed furgol" {
		t.Errorf("Cell(0,1) = %q, %v", v, ok)
	}
	if _, ok := tbl.Cell(99, 0); ok {
		t.Error("Cell out of range reported ok")
	}
	if _, ok := tbl.Cell(0, 99); ok {
		t.Error("Cell col out of range reported ok")
	}
	col := tbl.Column(3)
	if !reflect.DeepEqual(col, []string{"6000", "3600", "960"}) {
		t.Errorf("Column(3) = %v", col)
	}
	if tbl.Column(-1) != nil {
		t.Error("Column(-1) != nil")
	}
}

func TestIsNumericColumn(t *testing.T) {
	tbl := golfTable()
	if tbl.IsNumericColumn(1) {
		t.Error("player column reported numeric")
	}
	if !tbl.IsNumericColumn(3) {
		t.Error("money column reported non-numeric")
	}
	// Mostly-numeric columns pass the 80% threshold.
	noisy := New("n", "c", []string{"v"})
	for i := 0; i < 9; i++ {
		noisy.MustAppendRow("42")
	}
	noisy.MustAppendRow("n/a")
	if !noisy.IsNumericColumn(0) {
		t.Error("90% numeric column reported non-numeric")
	}
	// Missing cells don't count against the threshold.
	missing := New("m", "c", []string{"v"})
	missing.MustAppendRow(Missing)
	missing.MustAppendRow("5")
	if !missing.IsNumericColumn(0) {
		t.Error("numeric column with Missing cells reported non-numeric")
	}
	empty := New("e", "c", []string{"v"})
	if empty.IsNumericColumn(0) {
		t.Error("empty table column reported numeric")
	}
}

func TestFindRow(t *testing.T) {
	tbl := golfTable()
	if got := tbl.FindRow(1, "Gene_Littler"); got != 1 {
		t.Errorf("FindRow folded = %d, want 1", got)
	}
	if got := tbl.FindRow(1, "nobody"); got != -1 {
		t.Errorf("FindRow missing = %d, want -1", got)
	}
}

func TestClone(t *testing.T) {
	tbl := golfTable()
	c := tbl.Clone()
	c.Rows[0][1] = "changed"
	c.Columns[0] = "changed"
	if tbl.Rows[0][1] != "ed furgol" || tbl.Columns[0] != "place" {
		t.Error("Clone shares storage with original")
	}
}

func TestStringAndSerialize(t *testing.T) {
	tbl := golfTable()
	s := tbl.String()
	if !strings.Contains(s, "1954 u.s. open (golf)") || !strings.Contains(s, "| ed furgol |") {
		t.Errorf("String output malformed:\n%s", s)
	}
	ser := tbl.SerializeForIndex()
	for _, want := range []string{"1954", "player", "bobby locke", "960"} {
		if !strings.Contains(ser, want) {
			t.Errorf("SerializeForIndex missing %q", want)
		}
	}
}

func TestTupleAt(t *testing.T) {
	tbl := golfTable()
	tp, ok := tbl.TupleAt(2)
	if !ok {
		t.Fatal("TupleAt(2) failed")
	}
	if tp.Caption != tbl.Caption || tp.TableID != "t1" {
		t.Errorf("tuple context wrong: %+v", tp)
	}
	if v, ok := tp.Value("money"); !ok || v != "960" {
		t.Errorf("tuple Value(money) = %q, %v", v, ok)
	}
	if _, ok := tp.Value("missing"); ok {
		t.Error("tuple Value(missing) ok")
	}
	if _, ok := tbl.TupleAt(-1); ok {
		t.Error("TupleAt(-1) ok")
	}
	// Mutating the tuple must not touch the table.
	tp.Values[0] = "zzz"
	if tbl.Rows[2][0] == "zzz" {
		t.Error("TupleAt shares storage with table")
	}
}

func TestTupleWithValue(t *testing.T) {
	tbl := golfTable()
	tp, _ := tbl.TupleAt(0)
	tp2 := tp.WithValue("money", "9999")
	if v, _ := tp2.Value("money"); v != "9999" {
		t.Errorf("WithValue did not set: %q", v)
	}
	if v, _ := tp.Value("money"); v != "6000" {
		t.Errorf("WithValue mutated original: %q", v)
	}
}

func TestTupleSerializeAndString(t *testing.T) {
	tbl := golfTable()
	tp, _ := tbl.TupleAt(0)
	s := tp.SerializeForIndex()
	for _, want := range []string{"1954", "player", "ed furgol", "money", "6000"} {
		if !strings.Contains(s, want) {
			t.Errorf("tuple serialization missing %q in %q", want, s)
		}
	}
	if !strings.Contains(tp.String(), "player=ed furgol") {
		t.Errorf("tuple String = %q", tp.String())
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tbl := golfTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, tbl.ID, tbl.Caption)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(got.Columns, tbl.Columns) || !reflect.DeepEqual(got.Rows, tbl.Rows) {
		t.Errorf("CSV roundtrip mismatch:\n%v\n%v", got, tbl)
	}
}

func TestCSVRoundtripProperty(t *testing.T) {
	// Any 2-column table of printable cells survives a roundtrip.
	f := func(cells [][2]string) bool {
		tbl := New("id", "cap", []string{"a", "b"})
		for _, c := range cells {
			tbl.MustAppendRow(c[0], c[1])
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, "id", "cap")
		if err != nil {
			return false
		}
		if len(got.Rows) != len(tbl.Rows) {
			return false
		}
		for i := range got.Rows {
			// encoding/csv normalizes \r\n to \n on read; normalize both
			// sides the same way for comparison.
			for j := range got.Rows[i] {
				a := strings.ReplaceAll(got.Rows[i][j], "\r\n", "\n")
				b := strings.ReplaceAll(tbl.Rows[i][j], "\r\n", "\n")
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	in := "a,b,c\n1,2\n1,2,3,4\n"
	got, err := ReadCSV(strings.NewReader(in), "id", "cap")
	if err != nil {
		t.Fatalf("ReadCSV ragged: %v", err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if !reflect.DeepEqual(got.Rows[0], []string{"1", "2", ""}) {
		t.Errorf("short row padded wrong: %v", got.Rows[0])
	}
	if !reflect.DeepEqual(got.Rows[1], []string{"1", "2", "3"}) {
		t.Errorf("long row trimmed wrong: %v", got.Rows[1])
	}
}
