package core

import (
	"fmt"
	"slices"

	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/textutil"
	"repro/internal/vecindex"
)

// The live ingest path is pipelined in three stages (mirroring the lake's
// write path):
//
//  1. prepareHook runs on the ingesting goroutine before the lake's write
//     lock: it analyzes the event's text once, into term IDs of the
//     embedder's dictionary, folds them into each instance's bag of terms
//     (its BM25 document) and sums, normalizes and quantizes its vector row
//     from that bag into int8 codes — the expensive work — so concurrent
//     writers derive in parallel;
//  2. the lake commits the event and delivers it (with the prepared
//     payload) in version order;
//  3. apply performs the precomputed index insertions on the committing
//     goroutine, under the lake's apply lock — one section writes the
//     indexes at a time, in version order — and the lake publishes the
//     event's version once it returns.

// indexOp is one instance's precomputed insertion into both families: its
// bag of terms, and its vector row's codes and inverse norm as
// vecindex.Quantize wrote them.
type indexOp struct {
	kind  datalake.Kind
	id    string
	bag   textutil.IDBag
	codes []int8
	norm  float32
}

// preparedEvent is the payload prepareHook attaches to a lake event: every
// index operation the event implies, with analysis and embedding done.
type preparedEvent struct {
	ops   []indexOp
	codes []int8 // the ops' codes, back to back
}

// applyOps inserts precomputed operations into the indexes. It is the
// single insertion implementation behind both the live path and the bulk
// load, so the two paths cannot drift in ID or serialization scheme.
func (ix *Indexer) applyOps(pe *preparedEvent) error {
	for _, op := range pe.ops {
		if err := ix.bm25[op.kind].AddBag(op.id, op.bag); err != nil {
			return fmt.Errorf("core: bm25 add %s: %w", op.id, err)
		}
		if err := ix.vec[op.kind].AddCodes(op.id, op.codes, op.norm); err != nil {
			return fmt.Errorf("core: vector add %s: %w", op.id, err)
		}
	}
	return nil
}

// prepareHook is the lake's pre-commit stage: it derives every index
// operation the event implies, outside the lake's locks. Entity events
// return no payload — their serialization depends on the post-commit graph
// neighborhood, so apply computes it.
func (ix *Indexer) prepareHook(ev datalake.Event) (any, error) {
	if ev.Kind == datalake.KindEntity {
		return nil, nil
	}
	return ix.prepareEvent(ev), nil
}

// prepareEvent computes the precomputed payload for a table or text event:
// each piece of text is analyzed once, and each instance's bag feeds its
// BM25 op and its vector row, summed in one accumulator the event reuses.
func (ix *Indexer) prepareEvent(ev datalake.Event) *preparedEvent {
	pe := &preparedEvent{}
	acc := make(embed.Vector, ix.emb.Dim())
	dict := ix.emb.Dict()
	switch ev.Kind {
	case datalake.KindTable:
		ix.prepareTable(pe, acc, ev.Table)
	case datalake.KindText:
		// A document's text is its title and its body.
		d := ev.Doc
		ids := dict.AppendIDs(dict.AppendIDs(nil, d.Title), d.Text)
		pe.addBag(ix, acc, datalake.KindText, datalake.TextInstanceID(d.ID), dict.Bag(ids))
	}
	return pe
}

// prepareTable adds a table's ops: the table's, then each row's tuple's.
// A tuple's text is the table's header (caption and columns) and its row's
// cells up to the header's width; the table's is the header and every
// cell. No token crosses the spaces that join those pieces, so each piece
// is analyzed once and the instances' bags are folded from the pieces'
// IDs: the bags of the texts SerializeForIndex writes, without writing
// them.
func (ix *Indexer) prepareTable(pe *preparedEvent, acc embed.Vector, t *table.Table) {
	dict := ix.emb.Dict()
	ids := dict.AppendIDs(nil, t.Caption)
	for _, c := range t.Columns {
		ids = dict.AppendIDs(ids, c)
	}
	header := len(ids)
	cells := make([][2]int, len(t.Rows)) // row r's cells within the header's width: ids[cells[r][0]:cells[r][1]]
	for r, row := range t.Rows {
		w := min(len(row), len(t.Columns))
		cells[r][0] = len(ids)
		for _, c := range row[:w] {
			ids = dict.AppendIDs(ids, c)
		}
		cells[r][1] = len(ids)
		for _, c := range row[w:] {
			ids = dict.AppendIDs(ids, c)
		}
	}
	pe.codes = make([]int8, 0, (1+len(t.Rows))*len(acc))
	pe.addBag(ix, acc, datalake.KindTable, datalake.TableInstanceID(t.ID), dict.Bag(slices.Clone(ids)))
	var tuple []uint32
	for r := range t.Rows {
		tuple = append(append(tuple[:0], ids[:header]...), ids[cells[r][0]:cells[r][1]]...)
		pe.addBag(ix, acc, datalake.KindTuple, datalake.TupleInstanceID(t.ID, r), dict.Bag(tuple))
	}
}

// addInstance analyzes one serialized instance and appends its op to the
// payload.
func (pe *preparedEvent) addInstance(ix *Indexer, acc embed.Vector, kind datalake.Kind, id, text string) {
	pe.addBag(ix, acc, kind, id, ix.emb.Dict().Analyze(text))
}

// addBag appends the op of an instance with bag to the payload, summing
// the row in acc: EmbedText's sum of the same bag, normalized, then
// quantized.
func (pe *preparedEvent) addBag(ix *Indexer, acc embed.Vector, kind datalake.Kind, id string, bag textutil.IDBag) {
	clear(acc)
	ix.emb.AddBag(acc, bag)
	embed.Normalize(acc)
	off := len(pe.codes)
	pe.codes = slices.Grow(pe.codes, len(acc))[:off+len(acc)]
	codes := pe.codes[off:]
	pe.ops = append(pe.ops, indexOp{kind: kind, id: id, bag: bag, codes: codes, norm: vecindex.Quantize(codes, acc)})
}

// apply is the lake's application stage: it runs under the lake's apply
// lock in version order and performs one committed event's
// precomputed insertions (or, for a triple, re-indexes the subject's
// entity page).
func (ix *Indexer) apply(ev datalake.Event) error {
	if ev.Kind == datalake.KindEntity {
		// The triple is committed, so the graph knows its subject. The
		// instance is keyed by the canonical (first-seen) subject casing —
		// the same key bulk ingest derives from Graph.Entities() — so a
		// triple whose subject varies only in case updates the existing
		// instance instead of forking a new one.
		entity, rev := ix.lake.Graph().Entity(ev.Triple.Subject)
		return ix.reindexEntity(entity, rev)
	}

	pe, ok := ev.Payload.(*preparedEvent)
	if !ok {
		// No prepared payload (e.g. the subscriber registered between this
		// event's prepare and commit): derive it now, under the apply lock.
		pe = ix.prepareEvent(ev)
	}
	return ix.applyOps(pe)
}
