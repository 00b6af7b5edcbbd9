package datalake

import (
	"fmt"
	"iter"
	"maps"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// sealableItems are the shapes a sealed segment must hand back unchanged:
// a plain table, one with no rows, one with no columns, ragged rows (short,
// empty, wide), empty and non-UTF-8 cells, and documents with and without
// every field. prefix keeps IDs apart between batches.
func sealableItems(prefix string) []BatchItem {
	plain := table.New(prefix+"plain", "1954 u.s. open (golf)", []string{"player", "money"})
	plain.SourceID = "web"
	plain.MustAppendRow("tommy bolt", "570")
	plain.MustAppendRow("", "\xff\xfe not utf-8 \x00")
	empty := table.New(prefix+"empty", "no rows yet", []string{"a", "b", "c"})
	bare := table.New(prefix+"bare", "", nil)
	ragged := table.New(prefix+"ragged", "scraped", []string{"x", "y"})
	ragged.Rows = [][]string{{"1", "2"}, {"3"}, nil, {"4", "5", "6"}}
	items := []BatchItem{{Table: plain}, {Table: empty}, {Table: bare}, {Table: ragged}}
	for _, d := range []*doc.Document{
		{ID: prefix + "d1", Title: "Tommy Bolt", EntityID: "tommy bolt", SourceID: "web", Text: "Tommy Bolt won 570.\n\nSecond paragraph."},
		{ID: prefix + "d2"},
	} {
		items = append(items, BatchItem{Doc: d})
	}
	// Every batch's triples repeat one entity in another casing, so sealed
	// runs and the tail share subjects.
	return append(items,
		BatchItem{Triple: &kg.Triple{Subject: prefix + "s", Predicate: "p", Object: "o"}},
		BatchItem{Triple: &kg.Triple{Subject: "Tommy Bolt", Predicate: prefix + "won", Object: "570", SourceID: "web"}},
		BatchItem{Triple: &kg.Triple{Subject: prefix + "TOMMY bolt", Predicate: "country", Object: "\xff"}},
		BatchItem{Triple: &kg.Triple{Subject: "tommy  BOLT", Predicate: "Country", Object: prefix + "us"}})
}

// catalogOf is what a reader can see of a lake or a view: every table,
// document, tuple and instance, by ID.
func catalogOf(t *testing.T, tableIDs, docIDs []string, tbl func(string) (*table.Table, bool),
	document func(string) (*doc.Document, bool), resolve func(string) (Instance, error)) map[string]any {
	t.Helper()
	out := map[string]any{"table ids": tableIDs, "doc ids": docIDs}
	for _, id := range tableIDs {
		tb, ok := tbl(id)
		if !ok {
			t.Fatalf("table %q listed but missing", id)
		}
		out["table:"+id] = tb
		for row := 0; row <= len(tb.Rows); row++ { // one past the end, too
			in, err := resolve(TupleInstanceID(id, row))
			out[TupleInstanceID(id, row)] = fmt.Sprint(in.Tuple, in.SourceID, err)
		}
		in, err := resolve(TableInstanceID(id))
		if err != nil || !reflect.DeepEqual(in.Table, tb) {
			t.Fatalf("Resolve(table %q) = %+v, %v; Table gave %+v", id, in.Table, err, tb)
		}
	}
	for _, id := range docIDs {
		d, ok := document(id)
		if !ok {
			t.Fatalf("document %q listed but missing", id)
		}
		out["text:"+id] = d
		in, err := resolve(TextInstanceID(id))
		if err != nil || !reflect.DeepEqual(in.Doc, d) {
			t.Fatalf("Resolve(text %q) = %+v, %v; Document gave %+v", id, in.Doc, err, d)
		}
	}
	return out
}

// graphOf is what a reader can see of a graph: its triples, entities and
// their pages, and each triple's subject looked up.
func graphOf(t *testing.T, g *kg.Graph, resolve func(string) (Instance, error)) map[string]any {
	t.Helper()
	triples, entities := g.Triples(), g.Entities()
	out := map[string]any{"triples": triples, "entities": entities}
	if g.Len() != len(triples) || g.NumEntities() != len(entities) {
		t.Fatalf("graph Len %d, NumEntities %d; %d triples, %d entities", g.Len(), g.NumEntities(), len(triples), len(entities))
	}
	for _, e := range append(entities, "TOMMY BOLT", "nobody") {
		canonical, n := g.Entity(e)
		page, pn := g.EntityPage(e)
		source, ok := g.EntitySource(e)
		in, err := resolve(EntityInstanceID(e))
		out["entity:"+e] = fmt.Sprint(canonical, n, page, pn, source, ok, g.About(e), in.SourceID, in.Entity, err == nil)
	}
	for _, tr := range triples {
		out["lookup:"+tr.Subject+"/"+tr.Predicate] = g.Lookup(tr.Subject, tr.Predicate)
	}
	return out
}

func lakeCatalog(t *testing.T, l *Lake) map[string]any {
	out := catalogOf(t, l.TableIDs(), l.DocIDs(), l.Table, l.Document, l.Resolve)
	out["stats"] = l.Stats()
	if !reflect.DeepEqual(l.Triples(), l.Graph().Triples()) {
		t.Fatal("the lake's triples are not its graph's")
	}
	maps.Copy(out, graphOf(t, l.Graph(), l.Resolve))
	return out
}

func viewCatalog(t *testing.T, v *View) map[string]any {
	resolve := func(id string) (Instance, error) { return v.Resolve(id, v.Graph()) }
	out := catalogOf(t, v.TableIDs(), v.DocIDs(), v.Table, v.Document, resolve)
	if !reflect.DeepEqual(v.Triples(), v.Graph().Triples()) {
		t.Fatal("the view's triples are not its graph's")
	}
	maps.Copy(out, graphOf(t, v.Graph(), resolve))
	return out
}

// TestSealKeepsCatalog: sealing a lake's tail — at each fork, with ingest
// between and after, and with segments merged — changes what the lake
// and its views hold in form only. Every table, tuple and document reads
// back as it did from Go objects, and so do IDs, stats and the column form
// a stored catalog is written from; a fork from before later seals and
// merges reads as before; and the sealed objects are let go.
func TestSealKeepsCatalog(t *testing.T) {
	l, err := Load([]Source{{ID: "web", TrustPrior: 0.7}}, sealableItems("a-"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := lakeCatalog(t, l)
	held, _ := l.Table("a-plain")
	released := weak.Make(held)
	held = nil
	first := forkView(t, l)
	if len(first.cat.tables)+len(first.cat.docs) != 0 || len(l.cat.tables)+len(l.cat.docs) != 0 {
		t.Fatal("the fork left Go objects in the view or the lake")
	}
	if got := lakeCatalog(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed lake reads\n%v\nwant\n%v", got, want)
	}
	wantView := viewCatalog(t, first)
	delete(want, "stats")
	if !reflect.DeepEqual(wantView, want) {
		t.Fatalf("sealed view reads\n%v\nwant\n%v", wantView, want)
	}
	wantCols := columnsOf(first)
	runtime.GC()
	runtime.GC()
	if released.Value() != nil {
		t.Error("a sealed table is still reachable")
	}
	if SegmentBytes() == 0 && runtime.GOOS == "linux" {
		t.Log("segments are on the heap in this run")
	}

	res, err := l.addBatch(sealableItems("b-"), storedCatalog)
	if err != nil || res[0].Err != nil {
		t.Fatal(err, res[0].Err)
	}
	stale := forkView(t, l)
	staleWant := viewCatalog(t, stale)
	if _, err := l.addBatch(sealableItems("c-"), storedCatalog); err != nil {
		t.Fatal(err)
	}
	want = lakeCatalog(t, l)
	second := forkView(t, l)
	if len(second.cat.segs) != 1 {
		t.Errorf("three seals of equal size left %d segments, want them merged into one", len(second.cat.segs))
	}
	if got := viewCatalog(t, stale); !reflect.DeepEqual(got, staleWant) {
		t.Fatalf("a fork from before the seal reads\n%v\nwant\n%v", got, staleWant)
	}
	if got := columnsOf(first); !reflect.DeepEqual(got, wantCols) {
		t.Fatalf("the first view's columns after later seals\n%v\nwant\n%v", got, wantCols)
	}
	if _, err := l.addBatch(sealableItems("d-"), storedCatalog); err != nil {
		t.Fatal(err)
	}
	got := viewCatalog(t, second)
	if len(got) != len(want)-1 { // all but the lake's stats
		t.Fatalf("the merged view holds %d entries, the lake held %d", len(got), len(want)-1)
	}
	for k, v := range got {
		if !reflect.DeepEqual(v, want[k]) {
			t.Errorf("the merged view's %s = %v, the lake's was %v", k, v, want[k])
		}
	}
	// Sealing what is left must not change what the lake holds.
	want = lakeCatalog(t, l)
	forkView(t, l)
	if got := lakeCatalog(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("four seals: lake reads\n%v\nwant\n%v", got, want)
	}
}

// TestManySmallSegments: a lake sealed after every small batch holds its
// catalog in a list of segments that merges keep O(log n) long, and every
// table, tuple, document, ID and stat reads as from a lake that never
// sealed; lookups find each instance's segment by its position.
func TestManySmallSegments(t *testing.T) {
	l, ref := New(), New()
	defer l.Close()
	defer ref.Close()
	most := 0
	for i := range 60 {
		items := sealableItems(fmt.Sprint(i, "-"))
		if i%3 == 2 { // a batch of documents alone, so positions of the two modalities part
			items = items[4:6]
		}
		for _, lk := range []*Lake{l, ref} {
			if _, err := lk.addBatch(items, storedCatalog); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Quiesce(func(uint64) error { return l.seal() }); err != nil {
			t.Fatal(err)
		}
		most = max(most, len(l.cat.segs))
		if n := len(l.cat.segs); n > 2+bits.Len(uint(len(l.cat.tableIDs)+len(l.cat.docIDs))) {
			t.Fatalf("batch %d: %d segments", i, n)
		}
	}
	if most < 3 {
		t.Errorf("at most %d segments: the test does not exercise the search over many", most)
	}
	if got, want := lakeCatalog(t, l), lakeCatalog(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed lake reads\n%v\nwant\n%v", got, want)
	}
	v, w := forkView(t, l), forkView(t, ref)
	if got, want := columnsOf(v), columnsOf(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed columns\n%v\nwant\n%v", got, want)
	}
}

func forkView(t *testing.T, l *Lake) *View {
	t.Helper()
	v, err := l.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// columnsOf is the column form a view is written in.
func columnsOf(v *View) map[string]any {
	out := map[string]any{}
	for _, name := range segmentColumns {
		var vals []string
		for s := range v.Column(name) {
			vals = append(vals, string([]byte(s)))
		}
		out[name] = vals
	}
	ncols, nrows, widths := v.Shape()
	out["shape"] = [][]uint32{ncols, nrows, widths}
	return out
}

// TestLoadColumnsRejects: a column form whose counts disagree with its
// columns, or that repeats or omits an ID, loads no lake.
func TestLoadColumnsRejects(t *testing.T) {
	base := map[string][]string{
		"table.id": {"t"}, "table.caption": {"c"}, "table.source": {""},
		"table.columns": {"a", "b"}, "table.cells": {"1", "2", "3", "4"},
		"doc.id": {"d"}, "doc.title": {""}, "doc.entity": {""}, "doc.source": {""}, "doc.text": {"x"},
		"triple.subject": {"s"}, "triple.predicate": {"p"}, "triple.object": {"o"}, "triple.source": {""},
	}
	load := func(edit func(cols map[string][]string, c *Columns)) error {
		cols := map[string][]string{}
		for k, v := range base {
			cols[k] = append([]string(nil), v...)
		}
		c := Columns{NCols: []uint32{2}, NRows: []uint32{2}}
		edit(cols, &c)
		c.Strings = func(name string) iter.Seq[string] { return slices.Values(cols[name]) }
		l, err := LoadColumns(nil, c)
		if err == nil {
			l.Close()
		}
		return err
	}
	if err := load(func(map[string][]string, *Columns) {}); err != nil {
		t.Fatalf("the well-formed columns fail to load: %v", err)
	}
	for name, edit := range map[string]func(map[string][]string, *Columns){
		"a caption short":       func(m map[string][]string, _ *Columns) { m["table.caption"] = nil },
		"a doc title short":     func(m map[string][]string, _ *Columns) { m["doc.title"] = nil },
		"no row counts":         func(_ map[string][]string, c *Columns) { c.NRows = nil },
		"a column name too few": func(_ map[string][]string, c *Columns) { c.NCols = []uint32{3} },
		"4G rows of no cells": func(m map[string][]string, c *Columns) {
			m["table.columns"] = nil
			c.NCols, c.NRows = []uint32{0}, []uint32{1 << 31}
		},
		"rows past the cells":   func(_ map[string][]string, c *Columns) { c.NRows = []uint32{3} },
		"cells left over":       func(_ map[string][]string, c *Columns) { c.NRows = []uint32{1} },
		"widths short":          func(_ map[string][]string, c *Columns) { c.RowWidth = []uint32{4} },
		"widths past the cells": func(_ map[string][]string, c *Columns) { c.RowWidth = []uint32{4, 1} },
		"an empty table id":     func(m map[string][]string, _ *Columns) { m["table.id"] = []string{""} },
		"a triple object short": func(m map[string][]string, _ *Columns) { m["triple.object"] = nil },
		"a repeated doc id": func(m map[string][]string, _ *Columns) {
			for _, col := range []string{"doc.id", "doc.title", "doc.entity", "doc.source", "doc.text"} {
				m[col] = append(m[col], m[col][0])
			}
		},
	} {
		if err := load(edit); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// TestSealedInstancesOutliveSegments: the instances a sealed lake and its
// views hand out are heap copies, so they stay intact after the lake and
// every view are dropped and the segments' cleanups have unmapped them —
// under a collector running at every percent of heap growth, while other
// goroutines seal and drop lakes of their own.
func TestSealedInstancesOutliveSegments(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	want, err := Load(nil, sealableItems("x-"))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	wantCatalog := lakeCatalog(t, want)
	var wg sync.WaitGroup
	for w := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				got := sealedCopies(t)
				for range 2 {
					runtime.GC()
				}
				for k, v := range wantCatalog {
					if !reflect.DeepEqual(got[k], v) {
						t.Errorf("worker %d round %d: %s = %v after its segment was dropped, want %v", w, i, k, got[k], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sealedCopies seals a lake of sealableItems and returns what it and its
// view hand out, with nothing left holding the lake, the view or their
// segment.
func sealedCopies(t *testing.T) map[string]any {
	l, err := Load(nil, sealableItems("x-"))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer l.Close()
	v := forkView(t, l)
	got := lakeCatalog(t, l)
	for k, val := range viewCatalog(t, v) {
		if k != "stats" && !reflect.DeepEqual(val, got[k]) {
			t.Errorf("view's %s = %v, the lake's %v", k, val, got[k])
		}
	}
	return got
}

// TestViewTriplesShareTheGraph: a view takes the graph's triples without
// copying them — the fork seals them into the segment it shares with the
// lake — and triples added after the fork stay out of it.
func TestViewTriplesShareTheGraph(t *testing.T) {
	l := New()
	defer l.Close()
	for i := range 3 {
		if err := l.AddTriple(kg.Triple{Subject: fmt.Sprint("s", i), Predicate: "p", Object: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	v := forkView(t, l)
	parent := l.Triples()
	if len(l.Graph().Unsealed()) != 0 || len(v.cat.segs) != 1 || v.cat.segs[0] != l.cat.segs[0] || v.cat.segs[0].numTriples() != 3 {
		t.Error("the view does not share the segment the fork sealed the triples into")
	}
	for i := range 100 {
		if err := l.AddTriple(kg.Triple{Subject: fmt.Sprint("late", i), Predicate: "p", Object: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Triples(); !reflect.DeepEqual(got, parent) || cap(got) != len(got) {
		t.Fatalf("view triples %v (cap %d), want the %d at the fork %v", got, cap(got), len(parent), parent)
	}
}

// TestSealWhileReading: seals run while other goroutines ingest, and read
// every instance and an entity's triples from the lake and from the views
// being sealed, and every read sees the content it would without the
// seals.
func TestSealWhileReading(t *testing.T) {
	l := New()
	defer l.Close()
	ref := New()
	defer ref.Close()
	const rounds = 8
	var wg sync.WaitGroup
	var views sync.Map // round → *View, forked before the round's seal
	wg.Add(1)
	go func() { // the writer: ingest a batch, fork (which seals)
		defer wg.Done()
		for r := range rounds {
			items := sealableItems(fmt.Sprint(r, "-"))
			if _, err := l.addBatch(items, storedCatalog); err != nil {
				t.Error(err)
				return
			}
			v, err := l.Fork(nil)
			if err != nil {
				t.Error(err)
				return
			}
			views.Store(r, v)
		}
	}()
	if _, err := ref.addBatch(func() (all []BatchItem) {
		for r := range rounds {
			all = append(all, sealableItems(fmt.Sprint(r, "-"))...)
		}
		return all
	}(), storedCatalog); err != nil {
		t.Fatal(err)
	}
	for range 2 { // readers of the lake and of every view so far
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				for _, id := range l.TableIDs() {
					got, err := l.Resolve(TupleInstanceID(id, 0))
					want, werr := ref.Resolve(TupleInstanceID(id, 0))
					if fmt.Sprint(got.Tuple, err) != fmt.Sprint(want.Tuple, werr) {
						t.Errorf("tuple of %s = %v, %v; want %v, %v", id, got.Tuple, err, want.Tuple, werr)
						return
					}
				}
				// The triples about an entity every round repeats: a
				// prefix of all of them, whatever has been sealed.
				want := ref.Graph().About("tommy bolt")
				prefix := func(got []kg.Triple) bool {
					return len(got) == 0 || len(got) <= len(want) && reflect.DeepEqual(got, want[:len(got)])
				}
				if got := l.Graph().About("tommy bolt"); !prefix(got) {
					t.Errorf("About(tommy bolt) = %v, want a prefix of %v", got, want)
					return
				}
				views.Range(func(_, v any) bool {
					if got := v.(*View).Graph().About("tommy bolt"); !prefix(got) {
						t.Errorf("view's About(tommy bolt) = %v, want a prefix of %v", got, want)
						return false
					}
					for _, id := range v.(*View).DocIDs() {
						got, _ := v.(*View).Document(id)
						want, _ := ref.Document(id)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("view document %s = %+v, want %+v", id, got, want)
							return false
						}
					}
					return true
				})
			}
		}()
	}
	wg.Wait()
}
