// Package kg implements the knowledge-graph modality the paper lists as a
// lake data type and discusses under "Cross-Modal Verification" (Section 5):
// a triple store with a subject index and entity neighborhood extraction
// for (text, knowledge-graph entity) verification.
package kg

import (
	"maps"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/textutil"
)

// Triple is a (subject, predicate, object) statement.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
	// SourceID identifies the originating dataset for trust scoring.
	SourceID string
}

// clone returns t with its strings copied onto the heap.
func (t Triple) clone() Triple {
	var b strings.Builder
	b.Grow(len(t.Subject) + len(t.Predicate) + len(t.Object) + len(t.SourceID))
	for _, s := range [...]string{t.Subject, t.Predicate, t.Object, t.SourceID} {
		b.WriteString(s)
	}
	s := b.String()
	next := func(n int) string {
		cut := s[:n]
		s = s[n:]
		return cut
	}
	return Triple{Subject: next(len(t.Subject)), Predicate: next(len(t.Predicate)), Object: next(len(t.Object)), SourceID: next(len(t.SourceID))}
}

// Graph is a triple store with an exact-match index on the folded
// subject. It is safe for concurrent use: writes take an exclusive lock
// and queries a shared lock, so triples can keep arriving while the graph
// serves lookups (the live-lake ingestion path).
//
// A graph holds its triples in two parts: sealed runs (see Run), usually
// off the Go heap, and the tail added since the last Seal as Go objects.
// What a reader hands out is the graph's own when it comes from the tail
// and a heap copy when it comes from a run, so nothing a caller holds
// points into a run's memory: a caller may drop the graph, and whatever
// owns the runs, while it still uses what it was handed.
type Graph struct {
	mu      sync.RWMutex
	runs    []*Run
	sealed  int              // the triples in runs
	triples []Triple         // the tail, in insertion order
	bySubj  map[string][]int // folded subject → positions in triples
	// entities counts the distinct folded subjects of runs and tail.
	entities int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{bySubj: make(map[string][]int)}
}

// SealedGraph returns a graph whose triples are run's, or an empty graph
// when run is nil.
func SealedGraph(run *Run) *Graph {
	g := NewGraph()
	if run != nil {
		g.runs, g.sealed, g.entities = []*Run{run}, run.Len(), run.keys.Len()
	}
	return g
}

// Add inserts a triple.
func (g *Graph) Add(t Triple) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := len(g.triples)
	g.triples = append(g.triples, t)
	subj := textutil.Fold(t.Subject)
	idx, ok := g.bySubj[subj]
	if !ok && !g.sealedHas(subj) {
		g.entities++
	}
	g.bySubj[subj] = append(idx, i)
}

// sealedHas reports whether some run holds the folded subject key.
func (g *Graph) sealedHas(key string) bool {
	for _, r := range g.runs {
		if _, _, ok := r.find(key); ok {
			return true
		}
	}
	return false
}

// Len returns the number of triples.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sealed + len(g.triples)
}

// NumEntities returns the number of distinct folded subjects, the length
// of Entities, without building it.
func (g *Graph) NumEntities() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entities
}

// Triples returns all triples in insertion order; the sealed ones are
// copied.
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Triple, 0, g.sealed+len(g.triples))
	for _, r := range g.runs {
		for i := range r.Len() {
			out = append(out, r.triple(uint32(i)))
		}
	}
	return append(out, g.triples...)
}

// Unsealed returns the triples added since the last Seal without copying
// them: the graph only appends to them, and their capacity is capped so
// that an append to the returned slice cannot reach the graph's. Callers
// must not write into it.
func (g *Graph) Unsealed() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.triples[:len(g.triples):len(g.triples)]
}

// Seal replaces the graph's runs with runs, which must hold the triples
// of the graph's runs followed by its first n unsealed triples, in order,
// and drops those n from the tail. What the graph holds is unchanged;
// only its form is.
func (g *Graph) Seal(runs []*Run, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.runs, g.sealed = runs, 0
	for _, r := range runs {
		g.sealed += r.Len()
	}
	g.triples = append([]Triple(nil), g.triples[n:]...)
	g.bySubj = make(map[string][]int, len(g.triples))
	for i, t := range g.triples {
		subj := textutil.Fold(t.Subject)
		g.bySubj[subj] = append(g.bySubj[subj], i)
	}
}

// Fork returns a graph holding what g holds now, which later additions to
// g do not change; it shares g's runs and tail. Callers must not add to
// it.
func (g *Graph) Fork() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return &Graph{
		runs:     g.runs[:len(g.runs):len(g.runs)],
		sealed:   g.sealed,
		triples:  g.triples[:len(g.triples):len(g.triples)],
		bySubj:   maps.Clone(g.bySubj),
		entities: g.entities,
	}
}

// each calls fn with each triple whose subject folds to key, in insertion
// order: a sealed one as views of its run's memory, valid only during the
// call. The caller holds mu.
func (g *Graph) each(key string, fn func(t Triple, sealed bool)) {
	for _, r := range g.runs {
		lo, hi, ok := r.find(key)
		if !ok {
			continue
		}
		for _, j := range r.bySubj[lo:hi] {
			fn(r.view(j), true)
		}
		runtime.KeepAlive(r)
	}
	for _, j := range g.bySubj[key] {
		fn(g.triples[j], false)
	}
}

// About returns every triple whose subject folds equal to entity, in
// insertion order; the sealed ones are copied.
func (g *Graph) About(entity string) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Triple
	g.each(textutil.Fold(entity), func(t Triple, sealed bool) {
		if sealed {
			t = t.clone()
		}
		out = append(out, t)
	})
	return out
}

// Entity resolves entity (matched under folding) to its canonical name —
// the first-seen subject casing — and the number of triples about it; zero
// triples means the graph does not know the entity. Consumers keying
// per-entity state (e.g. the indexer's entity instances) use the canonical
// name so later triples with variant casing update the same entity. The
// graph is append-only, so the count doubles as a revision of the
// neighborhood: an equal count means unchanged content. A sealed
// canonical name is copied.
func (g *Graph) Entity(entity string) (canonical string, triples int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.each(textutil.Fold(entity), func(t Triple, sealed bool) {
		if triples == 0 {
			canonical = copied(t.Subject, sealed)
		}
		triples++
	})
	return canonical, triples
}

// EntitySource returns the source of the first triple about entity
// (matched under folding), copied when sealed; ok is false when the graph
// does not know the entity.
func (g *Graph) EntitySource(entity string) (source string, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.each(textutil.Fold(entity), func(t Triple, sealed bool) {
		if !ok {
			source, ok = copied(t.SourceID, sealed), true
		}
	})
	return source, ok
}

// copied returns s, copied onto the heap when it is sealed.
func copied(s string, sealed bool) string {
	if sealed {
		return strings.Clone(s)
	}
	return s
}

// Lookup returns the objects of triples matching (subject, predicate),
// copied when sealed.
func (g *Graph) Lookup(subject, predicate string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fp := textutil.Fold(predicate)
	var out []string
	g.each(textutil.Fold(subject), func(t Triple, sealed bool) {
		if textutil.Fold(t.Predicate) == fp {
			out = append(out, copied(t.Object, sealed))
		}
	})
	return out
}

// Entities returns the sorted set of all subjects, each in its first-seen
// casing; the sealed ones are copied.
func (g *Graph) Entities() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[string]string, g.entities)
	for _, r := range g.runs {
		for k := range r.keys.Len() {
			if _, ok := seen[view(r.keys.Bytes(k))]; !ok {
				key := strings.Clone(view(r.keys.Bytes(k)))
				seen[key] = strings.Clone(view(r.cols[colSubject].Bytes(int(r.bySubj[r.keyStart[k]]))))
			}
		}
		runtime.KeepAlive(r)
	}
	for _, t := range g.triples {
		f := textutil.Fold(t.Subject)
		if _, ok := seen[f]; !ok {
			seen[f] = t.Subject
		}
	}
	out := make([]string, 0, len(seen))
	for _, orig := range seen {
		out = append(out, orig)
	}
	sort.Strings(out)
	return out
}

// SerializeEntity flattens an entity's neighborhood into a single string for
// content-based indexing ("subject predicate object. ..."), the KG analogue
// of table serialization.
func (g *Graph) SerializeEntity(entity string) string {
	text, _ := g.EntityPage(entity)
	return text
}

// EntityPage is SerializeEntity that also returns how many triples the
// page covers (see Entity), read under the same lock.
func (g *Graph) EntityPage(entity string) (text string, triples int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var b strings.Builder
	g.each(textutil.Fold(entity), func(t Triple, _ bool) {
		if triples > 0 {
			b.WriteByte(' ')
		}
		triples++
		b.WriteString(t.Subject)
		b.WriteByte(' ')
		b.WriteString(t.Predicate)
		b.WriteByte(' ')
		b.WriteString(t.Object)
		b.WriteByte('.')
	})
	return b.String(), triples
}

// FromTuple derives triples from a table tuple: one triple per non-key
// attribute, with the key value as subject and the column name as predicate.
// This implements the cross-modal bridge the paper sketches for integrating
// relational data with knowledge graphs.
func FromTuple(caption string, columns, values []string, keyCol int, sourceID string) []Triple {
	if keyCol < 0 || keyCol >= len(columns) || len(columns) != len(values) {
		return nil
	}
	subject := values[keyCol]
	out := make([]Triple, 0, len(columns)-1)
	for i, c := range columns {
		if i == keyCol || values[i] == "" {
			continue
		}
		pred := c
		if caption != "" {
			pred = c + " of " + caption
		}
		out = append(out, Triple{Subject: subject, Predicate: pred, Object: values[i], SourceID: sourceID})
	}
	return out
}
