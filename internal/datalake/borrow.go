package datalake

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// borrowBuf holds what one ResolveBorrowed call hands out besides the
// bytes: the instances, the table, tuple and document structs, their
// string headers and row slices. It is pooled, so a request that borrows
// no more than the last one allocates nothing. A nil *borrowBuf allocates
// each piece on the heap: the copying resolve.
type borrowBuf struct {
	insts  []Instance
	tables []table.Table
	tuples []table.Tuple
	docs   []doc.Document
	strs   []string
	rows   [][]string
}

var borrowPool = sync.Pool{New: func() any { return new(borrowBuf) }}

// take returns the next n elements of *buf. When they do not fit it
// starts a new chunk, so the elements taken before stay where they are.
func take[E any](buf *[]E, n int) []E {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]E, 0, max(2*cap(*buf), n, 16))
	}
	l := len(*buf)
	*buf = (*buf)[:l+n]
	return (*buf)[l : l+n : l+n]
}

// release clears what b handed out, so the pool keeps no pointer into a
// segment or the lake's tail, and returns it to the pool.
func (b *borrowBuf) release() {
	clear(b.insts)
	clear(b.tables)
	clear(b.tuples)
	clear(b.docs)
	clear(b.strs)
	clear(b.rows)
	b.insts, b.tables, b.tuples, b.docs = b.insts[:0], b.tables[:0], b.tuples[:0], b.docs[:0]
	b.strs, b.rows = b.strs[:0], b.rows[:0]
	borrowPool.Put(b)
}

func (b *borrowBuf) strings(n int) []string {
	if b == nil {
		return make([]string, n)
	}
	return take(&b.strs, n)
}

func (b *borrowBuf) rowSlices(n int) [][]string {
	if b == nil {
		return make([][]string, n)
	}
	return take(&b.rows, n)
}

func (b *borrowBuf) table() *table.Table {
	if b == nil {
		return new(table.Table)
	}
	return &take(&b.tables, 1)[0]
}

func (b *borrowBuf) tuple() *table.Tuple {
	if b == nil {
		return new(table.Tuple)
	}
	return &take(&b.tuples, 1)[0]
}

func (b *borrowBuf) document() *doc.Document {
	if b == nil {
		return new(doc.Document)
	}
	return &take(&b.docs, 1)[0]
}

// view is b as a string that aliases it.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// resolve resolves each of ids with fn into b's instances.
func (b *borrowBuf) resolve(ids []string, fn func(id string, b *borrowBuf) (Instance, error)) ([]Instance, error) {
	insts := take(&b.insts, len(ids))
	for i, id := range ids {
		var err error
		if insts[i], err = fn(id, b); err != nil {
			return nil, err
		}
	}
	return insts, nil
}

// ResolveBorrowed resolves each of ids as Resolve does and calls fn with
// the instances, in order, without copying them: a sealed table's,
// tuple's or document's strings alias its segment's memory, and one in
// the tail is the lake's own Go object (a tuple's values are its table's
// row). They are valid only until fn returns: fn must not keep them, or
// anything that holds them. The lake's catalog as of the call stays
// reachable until then, whatever seals and merges run meanwhile. A failed
// resolve is returned, and fn is not called.
func (l *Lake) ResolveBorrowed(ids []string, fn func([]Instance) error) error {
	b := borrowPool.Get().(*borrowBuf)
	defer b.release()
	l.mu.RLock()
	segs := l.cat.segs
	insts, err := b.resolve(ids, l.resolveLocked)
	l.mu.RUnlock()
	if err != nil {
		return err
	}
	defer runtime.KeepAlive(segs)
	return fn(insts)
}

// ResolveBorrowed is the pinned-read counterpart of Lake.ResolveBorrowed:
// the instances alias the view's segments, which stay reachable until fn
// returns. Entities resolve against g, as in Resolve.
func (v *View) ResolveBorrowed(ids []string, g *kg.Graph, fn func([]Instance) error) error {
	b := borrowPool.Get().(*borrowBuf)
	defer b.release()
	insts, err := b.resolve(ids, func(id string, b *borrowBuf) (Instance, error) { return v.resolve(id, g, b) })
	if err != nil {
		return err
	}
	defer runtime.KeepAlive(v)
	return fn(insts)
}
