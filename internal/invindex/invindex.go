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
// such a file back; Frozen.Adopt moves a running index from the container
// it was sealed into onto the mapping of the file just written; a snapshot
// retained for time travel searches the same segment through Frozen.Index;
// Transpose hands a segment's postings back by document. What is mutable
// is small: the delta of documents added since the last seal, and a
// tombstone bitmap over the base.
//
// The index is safe for concurrent use: writes take an exclusive lock,
// searches a shared one; a segment's bytes move from the built container
// to the mapping behind an atomic pointer shared by every index searching
// it.
package invindex

import (
	"fmt"
	"sync"

	"repro/internal/textutil"
)

// posting records one document's occurrences of a term.
type posting struct {
	doc  int32 // internal document ordinal
	freq int32 // term frequency in the document
}

// Index is a BM25 inverted index over string documents, analyzed by the
// index's term dictionary (tokenize → stopword-filter → Porter stem), the
// chain the vector rows are embedded from too. The delta keys its postings
// by the dictionary's term IDs. It has up to two tiers: an
// optional immutable base segment (sealed by Freeze or opened by OpenFile;
// process-private until a file holds it, mapped afterwards) occupying
// global ordinals [0, base.n), and the mutable delta below whose local
// ordinals follow at base.n. New documents always land in the delta;
// deletions of base documents only flip a bit in baseDeleted, so the base
// columns are never written. Freeze folds all three into the next base.
type Index struct {
	mu sync.RWMutex

	k1, b float64 // BM25 parameters: a new index's defaults, a segment's own once opened

	base         *Frozen // shared with every capture Freeze handed out
	baseDeleted  []bool  // tombstones for base ordinals
	baseLive     int
	baseTotalLen int64 // sum of lengths of live base documents

	dict     *textutil.Dict
	ids      []string       // delta ordinal -> external ID
	byID     map[string]int // external ID -> delta ordinal
	lengths  []int32        // delta ordinal -> token count
	deleted  []bool         // delta tombstones
	postings [][]posting    // term ID -> the delta's postings of the term
	// totalLen is the sum of lengths of live delta documents, for avgdl.
	totalLen int64
	liveDocs int
}

// baseSeg returns the base tier's current column views, nil without one.
func (ix *Index) baseSeg() *staticSeg {
	if ix.base == nil {
		return nil
	}
	return ix.base.cols.Load()
}

// New returns an empty index over a dictionary of its own, scoring with
// k1=1.2, b=0.75, the Elasticsearch/Lucene defaults.
func New() *Index { return NewWithDict(textutil.NewDict()) }

// NewWithDict is New over the dictionary d, which the bags AddBag is given
// must come from.
func NewWithDict(d *textutil.Dict) *Index {
	return &Index{k1: 1.2, b: 0.75, dict: d, byID: make(map[string]int)}
}

// Add indexes text under id. Re-adding an existing id returns an error:
// documents are immutable, and the caller should Delete first (matching the
// append-mostly ingest pattern of a data lake).
func (ix *Index) Add(id, text string) error {
	return ix.AddBag(id, ix.dict.Analyze(text))
}

// AddTerms is AddBag for a bag whose terms are strings.
func (ix *Index) AddTerms(id string, bag textutil.Bag) error {
	b := textutil.IDBag{Terms: make([]textutil.TermFreq, len(bag.Terms)), Len: bag.Len}
	for i, t := range bag.Terms {
		b.Terms[i] = textutil.TermFreq{ID: ix.dict.Add(t), Freq: bag.Counts[i]}
	}
	return ix.AddBag(id, b)
}

// AddBag indexes a pre-analyzed document under id: its bag of terms of
// the index's dictionary, which the caller built already — typically on an
// ingest pipeline's prepare stage, outside the index lock — so the critical
// section covers only the posting-list insertion.
func (ix *Index) AddBag(id string, bag textutil.IDBag) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ord, ok := ix.byID[id]; ok && !ix.deleted[ord] {
		return fmt.Errorf("invindex: duplicate document id %q", id)
	}
	if base := ix.baseSeg(); base != nil {
		if bo := base.ids.Find(id); bo >= 0 && !ix.baseDeleted[bo] {
			return fmt.Errorf("invindex: duplicate document id %q", id)
		}
	}
	ord := len(ix.ids)
	ix.ids = append(ix.ids, id)
	ix.byID[id] = ord
	ix.lengths = append(ix.lengths, int32(bag.Len))
	ix.deleted = append(ix.deleted, false)
	ix.totalLen += int64(bag.Len)
	ix.liveDocs++
	for _, t := range bag.Terms {
		if int(t.ID) >= len(ix.postings) {
			ix.postings = append(ix.postings, make([][]posting, int(t.ID)+1-len(ix.postings))...)
		}
		ix.postings[t.ID] = append(ix.postings[t.ID], posting{doc: int32(ord), freq: t.Freq})
	}
	return nil
}

// deltaPostings returns the delta's postings of term. Caller holds the
// lock.
func (ix *Index) deltaPostings(term string) []posting {
	if id, ok := ix.dict.Lookup(term); ok && int(id) < len(ix.postings) {
		return ix.postings[id]
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
			if bo := base.ids.Find(id); bo >= 0 && !ix.baseDeleted[bo] {
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
			kept = nil
		}
		ix.postings[term] = kept
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
// in process-private memory (heap) or in a mapped file, and the live delta
// documents.
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
		if bo := base.ids.Find(id); bo >= 0 && !ix.baseDeleted[bo] {
			return true
		}
	}
	return false
}
