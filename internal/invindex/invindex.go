// Package invindex implements the content-based index of VerifAI's Indexer
// module: an in-memory inverted index with Okapi BM25 ranking. It stands in
// for Elasticsearch in the paper's architecture — lake instances (tuples,
// tables, text files) are serialized to strings and indexed; queries are
// serialized generated data objects.
//
// A shard has one immutable form, the sealed segment: a binfmt container
// (static.go) of the compacted documents and postings as columns, each
// term's (doc, freq) pairs as doc gaps and frequencies bit-packed in blocks
// of 128 — about 1.1 bytes a pair on the workload lake where plain int32
// pairs took 8. Searches and seals decode a term's run into a buffer;
// opening a segment decodes every run once to validate it. Freeze
// seals base + delta + tombstones into the next segment and goes on
// searching it as the base; Frozen.Save writes its bytes; OpenFile maps
// such a file back; Frozen.Adopt moves a running index from the sealed
// heap buffer onto the mapping of the file just written; a snapshot
// retained for time travel searches the same segment through Frozen.Index.
// What is mutable is small: the delta of documents added since the last
// seal, and a tombstone bitmap over the base.
//
// The index is safe for concurrent use: writes take an exclusive lock,
// searches a shared one; a segment's bytes move from heap to mapping
// behind an atomic pointer shared by every index searching it.
package invindex

import (
	"fmt"
	"sync"

	"repro/internal/textutil"
)

// Analyzer converts a string into index terms. The default analyzer chain is
// tokenize → stopword-filter → Porter stem (textutil.TokenizeFiltered).
type Analyzer func(string) []string

// posting records one document's occurrences of a term.
type posting struct {
	doc  int32 // internal document ordinal
	freq int32 // term frequency in the document
}

// Index is a BM25 inverted index over string documents. It has up to two
// tiers: an optional immutable base segment (sealed by Freeze or opened by
// OpenFile; on the heap until a file holds it, mapped afterwards) occupying
// global ordinals [0, base.n), and the mutable delta below whose local
// ordinals follow at base.n. New documents always land in the delta;
// deletions of base documents only flip a bit in baseDeleted, so the base
// columns are never written. Freeze folds all three into the next base.
type Index struct {
	mu sync.RWMutex

	analyze Analyzer
	k1, b   float64

	base         *Frozen // shared with every capture Freeze handed out
	baseDeleted  []bool  // tombstones for base ordinals
	baseLive     int
	baseTotalLen int64 // sum of lengths of live base documents

	ids      []string       // delta ordinal -> external ID
	byID     map[string]int // external ID -> delta ordinal
	lengths  []int32        // delta ordinal -> token count
	deleted  []bool         // delta tombstones
	postings map[string][]posting
	// totalLen is the sum of lengths of live delta documents, for avgdl.
	totalLen int64
	liveDocs int
}

// Option configures an Index.
type Option func(*Index)

// WithAnalyzer overrides the analysis chain.
func WithAnalyzer(a Analyzer) Option { return func(ix *Index) { ix.analyze = a } }

// WithBM25 overrides the BM25 parameters (defaults k1=1.2, b=0.75, the
// Elasticsearch/Lucene defaults).
func WithBM25(k1, b float64) Option {
	return func(ix *Index) { ix.k1, ix.b = k1, b }
}

// baseSeg returns the base tier's current column views, nil without one.
func (ix *Index) baseSeg() *staticSeg {
	if ix.base == nil {
		return nil
	}
	return ix.base.cols.Load()
}

// New returns an empty index.
func New(opts ...Option) *Index {
	ix := &Index{
		analyze:  textutil.TokenizeFiltered,
		k1:       1.2,
		b:        0.75,
		byID:     make(map[string]int),
		postings: make(map[string][]posting),
	}
	for _, o := range opts {
		o(ix)
	}
	return ix
}

// Add indexes text under id. Re-adding an existing id returns an error:
// documents are immutable, and the caller should Delete first (matching the
// append-mostly ingest pattern of a data lake).
func (ix *Index) Add(id, text string) error {
	return ix.AddTerms(id, ix.analyze(text))
}

// AddTerms indexes a pre-analyzed document under id. The caller ran the
// analysis chain (Analyze) already — typically on an ingest pipeline's
// prepare stage, outside the index lock — so the critical section covers
// only the posting-list insertion.
func (ix *Index) AddTerms(id string, terms []string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ord, ok := ix.byID[id]; ok && !ix.deleted[ord] {
		return fmt.Errorf("invindex: duplicate document id %q", id)
	}
	if base := ix.baseSeg(); base != nil {
		if bo := base.findDoc(id); bo >= 0 && !ix.baseDeleted[bo] {
			return fmt.Errorf("invindex: duplicate document id %q", id)
		}
	}
	ord := len(ix.ids)
	ix.ids = append(ix.ids, id)
	ix.byID[id] = ord
	ix.lengths = append(ix.lengths, int32(len(terms)))
	ix.deleted = append(ix.deleted, false)
	ix.totalLen += int64(len(terms))
	ix.liveDocs++

	freqs := make(map[string]int32, len(terms))
	for _, t := range terms {
		freqs[t]++
	}
	for t, f := range freqs {
		ix.postings[t] = append(ix.postings[t], posting{doc: int32(ord), freq: f})
	}
	return nil
}

// compactThreshold is the minimum tombstone count before Delete compacts
// the index. Deletion compacts once tombstones both exceed this floor and
// outnumber live documents, so sustained churn (e.g. entity re-indexing
// under live KG ingestion) keeps postings memory and scan cost within 2× of
// the live set at amortized O(1) per deletion.
const compactThreshold = 64

// Delete tombstones a document, compacting the delta once tombstones
// dominate. Deleting an unknown or already-deleted id is a no-op returning
// false. Base-segment documents are tombstoned in a side bitmap until the
// next Freeze compacts them: the base columns are immutable (often a
// read-only mapping), and dead base entries cost one skipped pair per query.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, ok := ix.byID[id]
	if !ok || ix.deleted[ord] {
		if base := ix.baseSeg(); base != nil {
			if bo := base.findDoc(id); bo >= 0 && !ix.baseDeleted[bo] {
				ix.baseDeleted[bo] = true
				ix.baseLive--
				ix.baseTotalLen -= int64(base.lengths[bo])
				return true
			}
		}
		return false
	}
	ix.deleted[ord] = true
	ix.totalLen -= int64(ix.lengths[ord])
	ix.liveDocs--
	if dead := len(ix.ids) - ix.liveDocs; dead > ix.liveDocs && dead >= compactThreshold {
		ix.compactLocked()
	}
	return true
}

// compactLocked rebuilds the document arrays and posting lists without
// tombstones, remapping ordinals. Caller holds the write lock.
func (ix *Index) compactLocked() {
	remap := make([]int32, len(ix.ids))
	ids := make([]string, 0, ix.liveDocs)
	lengths := make([]int32, 0, ix.liveDocs)
	byID := make(map[string]int, ix.liveDocs)
	for i, id := range ix.ids {
		if ix.deleted[i] {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(ids))
		byID[id] = len(ids)
		ids = append(ids, id)
		lengths = append(lengths, ix.lengths[i])
	}
	ix.ids, ix.lengths, ix.byID = ids, lengths, byID
	ix.deleted = make([]bool, len(ids))
	for term, plist := range ix.postings {
		kept := plist[:0]
		for _, p := range plist {
			if no := remap[p.doc]; no >= 0 {
				kept = append(kept, posting{doc: no, freq: p.freq})
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, term)
		} else {
			ix.postings[term] = kept
		}
	}
}

// Len returns the number of live documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveDocs + ix.baseLive
}

// Tombstones returns the number of deleted documents the index still
// carries postings for (both tiers): what re-indexing churn has left
// behind and compaction has not yet reclaimed.
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ids) - ix.liveDocs + ix.baseLen() - ix.baseLive
}

// Residency reports where the index sits: the sealed base segment's bytes,
// on the heap or in a mapped file, and the live delta documents.
func (ix *Index) Residency() (heap, mapped int64, deltaDocs int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if base := ix.baseSeg(); base != nil && base.r.Mapped() {
		mapped = base.r.ID().Size
	} else if base != nil {
		heap = base.r.ID().Size
	}
	return heap, mapped, ix.liveDocs
}

// Contains reports whether id is indexed and live.
func (ix *Index) Contains(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ord, ok := ix.byID[id]; ok && !ix.deleted[ord] {
		return true
	}
	if base := ix.baseSeg(); base != nil {
		if bo := base.findDoc(id); bo >= 0 && !ix.baseDeleted[bo] {
			return true
		}
	}
	return false
}
