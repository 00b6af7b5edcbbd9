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
// opening a segment decodes every run once to validate it. An index
// searches a list of segments: Seal moves the delta into a new one, merged
// by the one policy of the lake's segment lists, seglist.Merge; Freeze
// folds segments, delta and tombstones into one and searches it alone;
// Frozen.Save writes its bytes to a file, deflated; OpenFile inflates such
// a file back into a segment, handing its postings back by document
// (Transposed) from the pass that validates them; a snapshot retained for
// time travel searches the same segment through Frozen.Index. A running
// index keeps the segments it built: a file is never the bytes it serves.
// What is mutable is small: the delta of documents added since the last
// seal, and a tombstone bitmap over each segment.
//
// The index is safe for concurrent use: writes take an exclusive lock,
// searches a shared one.
package invindex

import (
	"fmt"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/seglist"
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
// by the dictionary's term IDs. Documents live in a list of immutable
// segments (sealed by Seal or Freeze, or opened by OpenFile; each a
// container in process-private memory), whose documents take the
// global ordinals in list order, oldest first, and in the mutable delta
// below, whose local ordinals follow. New documents always land in the
// delta; deleting a sealed document only flips a bit in the index's own
// tombstones over its segment, so segment columns are never written.
//
// Search sums the statistics BM25 needs — live documents, their lengths,
// each term's live document frequency — over the segments and the delta.
// They are integers, so a document scores the same bits whichever
// segment, or the delta, holds it.
type Index struct {
	mu sync.RWMutex

	k1, b float64 // BM25 parameters: a new index's defaults, a segment's own once opened

	segs        []*part // oldest first
	segDocs     int     // documents over every segment, deleted ones included: the delta's first ordinal
	segLive     int
	segTotalLen int64 // sum of lengths of live sealed documents: grows at a seal, shrinks at a delete

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

// part is one sealed segment of an index's list, with the index's own
// tombstones over its documents.
type part struct {
	z *Frozen // shared with every index whose list holds it
	seglist.Part
}

func newPart(z *Frozen) *part { return &part{z: z, Part: seglist.NewPart(z.seg.n)} }

// setSegs installs segs as the segment list and numbers their documents.
func (ix *Index) setSegs(segs []*part) {
	ix.segs = segs
	ix.segDocs, ix.segLive = seglist.Number(segs)
}

// sealedIDs is a segment's ID column, for seglist.Lookup.
func sealedIDs(p *part) binfmt.FrontCodedCol { return p.z.seg.ids }

// New returns an empty index over a dictionary of its own, scoring with
// k1=1.2, b=0.75, the Elasticsearch/Lucene defaults.
func New() *Index { return NewWithDict(textutil.NewDict()) }

// NewWithDict is New over the dictionary d, which the bags AddBag is given
// must come from.
func NewWithDict(d *textutil.Dict) *Index {
	return &Index{k1: defaultK1, b: defaultB, dict: d, byID: make(map[string]int)}
}

// defaultK1 and defaultB are the BM25 parameters a new index scores with.
const defaultK1, defaultB = 1.2, 0.75

// Add indexes text under id. Re-adding an existing id returns an error:
// documents are immutable, and the caller should Delete first (matching the
// append-mostly ingest pattern of a data lake).
func (ix *Index) Add(id, text string) error {
	return ix.AddBag(id, ix.dict.Analyze(text))
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
	if p, _ := seglist.Lookup(ix.segs, id, sealedIDs); p != nil {
		return fmt.Errorf("invindex: duplicate document id %q", id)
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
// false. Sealed documents are tombstoned in their segment's bitmap until a
// merge or Freeze compacts them: segment columns are immutable (often a
// read-only mapping), and dead sealed entries cost one skipped pair per
// query.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, ok := ix.byID[id]
	if !ok || ix.deleted[ord] {
		if p, bo := seglist.Lookup(ix.segs, id, sealedIDs); p != nil {
			p.Delete(bo)
			ix.segLive, ix.segTotalLen = ix.segLive-1, ix.segTotalLen-int64(p.z.seg.lengths.At(bo))
			return true
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
	return ix.liveDocs + ix.segLive
}

// Tombstones returns the number of deleted documents the index still
// carries postings for (segments and delta): what re-indexing churn has
// left behind and compaction has not yet reclaimed.
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ids) - ix.liveDocs + ix.segDocs - ix.segLive
}

// Residency reports what the index holds: the sealed segments' bytes,
// whole containers, plus the delta's estimated Go heap (DeltaBytes), and
// the live delta documents.
func (ix *Index) Residency() (bytes int64, deltaDocs int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, p := range ix.segs {
		bytes += p.z.seg.r.Size()
	}
	return bytes + ix.deltaBytesLocked(), ix.liveDocs
}

// Segments returns the length of the segment list.
func (ix *Index) Segments() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.segs)
}

// DeltaBytes estimates the Go heap the delta holds: its IDs with their
// string headers and map entries, lengths, tombstones, and posting lists.
func (ix *Index) DeltaBytes() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.deltaBytesLocked()
}

// mapEntryBytes is about what a map entry of a string key and an int
// costs, its share of empty slots included.
const mapEntryBytes = 40

func (ix *Index) deltaBytesLocked() int64 {
	if len(ix.ids) == 0 {
		return 0
	}
	n := int64(len(ix.ids))*(16+4+1+mapEntryBytes) + 24*int64(cap(ix.postings))
	for _, id := range ix.ids {
		n += int64(len(id))
	}
	for _, plist := range ix.postings {
		n += 8 * int64(cap(plist))
	}
	return n
}

// Contains reports whether id is indexed and live.
func (ix *Index) Contains(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ord, ok := ix.byID[id]; ok && !ix.deleted[ord] {
		return true
	}
	p, _ := seglist.Lookup(ix.segs, id, sealedIDs)
	return p != nil
}
