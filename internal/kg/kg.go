// Package kg implements the knowledge-graph modality the paper lists as a
// lake data type and discusses under "Cross-Modal Verification" (Section 5):
// a triple store with a subject index and entity neighborhood extraction
// for (text, knowledge-graph entity) verification.
package kg

import (
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

// Graph is an in-memory triple store with an exact-match index on the
// folded subject. It is safe for concurrent use: writes take an exclusive
// lock and queries a shared lock, so triples can keep arriving while the
// graph serves lookups (the live-lake ingestion path).
type Graph struct {
	mu      sync.RWMutex
	triples []Triple
	bySubj  map[string][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{bySubj: make(map[string][]int)}
}

// Add inserts a triple.
func (g *Graph) Add(t Triple) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := len(g.triples)
	g.triples = append(g.triples, t)
	subj := textutil.Fold(t.Subject)
	g.bySubj[subj] = append(g.bySubj[subj], i)
}

// Len returns the number of triples.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.triples)
}

// Triples returns a copy of all triples.
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]Triple(nil), g.triples...)
}

// About returns every triple whose subject folds equal to entity.
func (g *Graph) About(entity string) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.aboutLocked(entity)
}

// aboutLocked is About under a lock already held by the caller.
func (g *Graph) aboutLocked(entity string) []Triple {
	idx := g.bySubj[textutil.Fold(entity)]
	out := make([]Triple, len(idx))
	for i, j := range idx {
		out[i] = g.triples[j]
	}
	return out
}

// Entity resolves entity (matched under folding) to its canonical name —
// the first-seen subject casing — and the number of triples about it; zero
// triples means the graph does not know the entity. Consumers keying
// per-entity state (e.g. the indexer's entity instances) use the canonical
// name so later triples with variant casing update the same entity. The
// graph is append-only, so the count doubles as a revision of the
// neighborhood: an equal count means unchanged content.
func (g *Graph) Entity(entity string) (canonical string, triples int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	idx := g.bySubj[textutil.Fold(entity)]
	if len(idx) == 0 {
		return "", 0
	}
	return g.triples[idx[0]].Subject, len(idx)
}

// Lookup returns the objects of triples matching (subject, predicate).
func (g *Graph) Lookup(subject, predicate string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fs, fp := textutil.Fold(subject), textutil.Fold(predicate)
	var out []string
	for _, j := range g.bySubj[fs] {
		if textutil.Fold(g.triples[j].Predicate) == fp {
			out = append(out, g.triples[j].Object)
		}
	}
	return out
}

// Entities returns the sorted set of all subjects.
func (g *Graph) Entities() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[string]string, len(g.bySubj))
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
	ts := g.aboutLocked(entity)
	if len(ts) == 0 {
		return "", 0
	}
	var b strings.Builder
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Subject)
		b.WriteByte(' ')
		b.WriteString(t.Predicate)
		b.WriteByte(' ')
		b.WriteString(t.Object)
		b.WriteByte('.')
	}
	return b.String(), len(ts)
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
