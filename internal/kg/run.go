package kg

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/textutil"
)

// ColumnNames are the string columns of a run of triples, in the order a
// stored catalog holds them: one string per triple each.
var ColumnNames = []string{"triple.subject", "triple.predicate", "triple.object", "triple.source"}

// The positions of ColumnNames in Run.cols.
const (
	colSubject = iota
	colPredicate
	colObject
	colSource
)

// The sections of a run's folded-subject index, which WriteIndex writes
// and OpenRun reads besides ColumnNames.
const (
	keysSection   = "triple.subjkeys"  // the distinct folded subjects, ascending
	startSection  = "triple.subjstart" // one uint32 per key, plus one: where its ordinals start
	bySubjSection = "triple.bysubj"    // triple ordinals grouped by key, ascending within one
)

// Run is a sealed run of triples: the columns of ColumnNames and a
// folded-subject index in one binfmt container, which its builder keeps
// off the Go heap where it can (binfmt.Writer.Build). The run holds the
// container's Reader, whose cleanup releases that memory, so a run's
// strings stay valid while the run is reachable; a Graph copies what it
// hands out of them.
type Run struct {
	r    *binfmt.Reader
	cols [4]binfmt.StringCol
	keys binfmt.StringCol
	// keyStart[k] is where the ordinals of keys[k]'s triples start in
	// bySubj, and keyStart[k+1] where they end.
	keyStart, bySubj []uint32
}

// WriteIndex adds to w the folded-subject index of a run whose subject
// column is subjects.
func WriteIndex(w *binfmt.Writer, subjects iter.Seq[string]) {
	type entry struct {
		key string
		ord uint32
	}
	var es []entry
	for s := range subjects {
		es = append(es, entry{textutil.Fold(s), uint32(len(es))})
	}
	// Stable, so a key's ordinals stay ascending.
	slices.SortStableFunc(es, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	var keys []string
	start := make([]uint32, 0, len(es)+1)
	bySubj := make([]uint32, len(es))
	for i, e := range es {
		if i == 0 || e.key != es[i-1].key {
			keys = append(keys, e.key)
			start = append(start, uint32(i))
		}
		bySubj[i] = e.ord
	}
	w.Strings(keysSection, keys)
	w.Uint32s(startSection, append(start, uint32(len(es))))
	w.Uint32s(bySubjSection, bySubj)
}

// OpenRun views the run r holds (see WriteIndex); it is nil when r holds
// no triple.
func OpenRun(r *binfmt.Reader) (*Run, error) {
	run := &Run{r: r}
	var err error
	for i, name := range ColumnNames {
		if run.cols[i], err = r.Strings(name); err != nil {
			return nil, err
		}
		if n := run.cols[i].Len(); n != run.Len() {
			return nil, fmt.Errorf("column %q has %d entries, %q has %d", name, n, ColumnNames[0], run.Len())
		}
	}
	if run.Len() == 0 {
		return nil, nil
	}
	if run.keys, err = r.Strings(keysSection); err != nil {
		return nil, err
	}
	if run.keyStart, err = r.Uint32s(startSection); err != nil {
		return nil, err
	}
	if run.bySubj, err = r.Uint32s(bySubjSection); err != nil {
		return nil, err
	}
	if len(run.keyStart) != run.keys.Len()+1 || len(run.bySubj) != run.Len() || run.keyStart[run.keys.Len()] != uint32(run.Len()) {
		return nil, fmt.Errorf("subject index of %d keys over %d ordinals for %d triples", run.keys.Len(), len(run.bySubj), run.Len())
	}
	for k, n := range run.keyStart[1:] {
		if n <= run.keyStart[k] {
			return nil, fmt.Errorf("subject index key %d has no triple", k)
		}
	}
	for _, ord := range run.bySubj {
		if ord >= uint32(run.Len()) {
			return nil, fmt.Errorf("subject index names triple %d of %d", ord, run.Len())
		}
	}
	return run, nil
}

// Len returns the number of triples in the run.
func (r *Run) Len() int { return r.cols[colSubject].Len() }

// find returns where the ordinals of the triples whose subject folds to
// key lie in bySubj.
func (r *Run) find(key string) (lo, hi uint32, ok bool) {
	n := r.keys.Len()
	k := sort.Search(n, func(k int) bool { return string(r.keys.Bytes(k)) >= key })
	ok = k < n && string(r.keys.Bytes(k)) == key
	runtime.KeepAlive(r)
	if !ok {
		return 0, 0, false
	}
	return r.keyStart[k], r.keyStart[k+1], true
}

// view returns triple i as views of the run's memory, valid while r is
// reachable.
func (r *Run) view(i uint32) Triple {
	return Triple{
		Subject:   view(r.cols[colSubject].Bytes(int(i))),
		Predicate: view(r.cols[colPredicate].Bytes(int(i))),
		Object:    view(r.cols[colObject].Bytes(int(i))),
		SourceID:  view(r.cols[colSource].Bytes(int(i))),
	}
}

// triple returns triple i copied onto the heap.
func (r *Run) triple(i uint32) Triple {
	t := r.view(i).clone()
	runtime.KeepAlive(r)
	return t
}

// view is b as a string that aliases it.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
