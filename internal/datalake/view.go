package datalake

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// View is an immutable snapshot of the lake's catalog pinned at one
// version: the fork primitive behind non-blocking checkpoints. A View is
// built under a brief quiescence (Fork), which first seals the lake's
// tail, so a View holds sealed segments only, never a Go object the lake
// was given. It copies the catalog's ID maps and the graph's subject
// index of its tail (kg.Graph.Fork), and shares everything else, cut to
// its length: the segment list, the ID lists and the graph's runs and tail
// only ever grow at their end or are replaced. So the fork costs a map
// entry per instance, not its content. A long-running consumer (the
// checkpoint write phase) serializes the View while ingestion continues
// on the live lake.
type View struct {
	version uint64
	sources []Source
	cat     *catalog
	graph   *kg.Graph
}

// Fork quiesces the lake just long enough to seal its tail (at most
// SealBytes of payload; see Lake) and pin a consistent View of the catalog at
// the current version, optionally running extra fork-time work (e.g.
// rotating a write-ahead log, freezing index shards) under the same
// quiescence. When Fork returns, ingestion resumes immediately; the View
// stays frozen at its version forever. A seal or extra error aborts the
// fork.
//
// This is the short phase of a two-phase checkpoint: everything
// proportional to snapshot *size* (serialization, fsync) happens later,
// against the returned View, with no lake locks held.
func (l *Lake) Fork(extra func(v *View) error) (*View, error) {
	var view *View
	err := l.Quiesce(func(version uint64) error {
		if err := l.seal(); err != nil {
			return err
		}
		view = l.viewLocked(version)
		if extra != nil {
			return extra(view)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return view, nil
}

// viewLocked forks the catalog into a View. The caller holds writeMu with
// the lake fully applied (Quiesce), so mu readers are the only concurrent
// accessors and a read lock suffices.
func (l *Lake) viewLocked(version uint64) *View {
	l.mu.RLock()
	defer l.mu.RUnlock()
	v := &View{
		version: version,
		sources: make([]Source, 0, len(l.sources)),
		cat:     l.cat.fork(),
		graph:   l.graph.Fork(),
	}
	v.cat.triples = v.graph.Unsealed()
	for _, s := range l.sources {
		v.sources = append(v.sources, s)
	}
	sort.Slice(v.sources, func(i, j int) bool { return v.sources[i].ID < v.sources[j].ID })
	return v
}

// Version returns the lake version the view is pinned at.
func (v *View) Version() uint64 { return v.version }

// Sources returns the view's registered sources sorted by ID (shared
// slice; callers must not mutate).
func (v *View) Sources() []Source { return v.sources }

// TableIDs returns the view's table IDs in insertion order (shared slice;
// callers must not mutate).
func (v *View) TableIDs() []string { return v.cat.tableIDs }

// Table returns a fresh copy of the table with the given ID.
func (v *View) Table(id string) (*table.Table, bool) { return v.cat.table(id, nil) }

// DocIDs returns the view's document IDs in insertion order (shared
// slice; callers must not mutate).
func (v *View) DocIDs() []string { return v.cat.docIDs }

// Document returns a fresh copy of the document with the given ID.
func (v *View) Document(id string) (*doc.Document, bool) { return v.cat.document(id, nil) }

// Triples returns a copy of the view's knowledge-graph triples in
// insertion order.
func (v *View) Triples() []kg.Triple { return v.graph.Triples() }

// Graph returns the view's knowledge graph, which shares the lake's
// sealed triples and hands out copies of them as the lake's does. Callers
// must not add to it.
func (v *View) Graph() *kg.Graph { return v.graph }

// Column yields the named column of CatalogColumns or kg.ColumnNames over
// the view's tables, documents or triples in insertion order, and Shape
// the tables' counts: the column form a stored catalog is written in. A
// string Column yields may be a view of a segment's memory, valid only
// while v is reachable.
func (v *View) Column(name string) iter.Seq[string] { return v.cat.column(name) }

// Shape returns each table's column and row count and each row's width,
// in insertion order (see Column).
func (v *View) Shape() (ncols, nrows, widths []uint32) { return v.cat.shape() }

// Resolve maps an instance ID to its content as of the view's version —
// the pinned-read counterpart of Lake.Resolve. Entity instances resolve
// against g, the view's Graph or one the caller holds for it; passing nil
// resolves entities as missing. Needs no locking: the view is immutable.
func (v *View) Resolve(instanceID string, g *kg.Graph) (Instance, error) {
	return v.resolve(instanceID, g, nil)
}

// resolve is Resolve, or with b a borrowing resolve (see
// ResolveBorrowed).
func (v *View) resolve(instanceID string, g *kg.Graph, b *borrowBuf) (Instance, error) {
	kind, ok := KindOf(instanceID)
	if !ok {
		return Instance{}, fmt.Errorf("datalake: malformed instance id %q", instanceID)
	}
	if kind != KindEntity {
		return v.cat.resolve(instanceID, kind, &v.version, b)
	}
	name := strings.TrimPrefix(instanceID, "entity:")
	var source string
	if g != nil {
		source, ok = g.EntitySource(name)
	}
	if g == nil || !ok {
		return Instance{}, fmt.Errorf("datalake: unknown entity %q at version %d", name, v.version)
	}
	return Instance{ID: instanceID, Kind: KindEntity, SourceID: source, Entity: name, Graph: g}, nil
}
