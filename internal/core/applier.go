package core

import (
	"fmt"
	"slices"

	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/textutil"
	"repro/internal/vecindex"
)

// The live ingest path is pipelined in three stages (mirroring the lake's
// write path):
//
//  1. prepareHook runs on the ingesting goroutine before the lake's write
//     lock: it serializes the event's instances, analyzes each once into a
//     bag of terms (its BM25 document) and sums, normalizes and quantizes
//     its vector row from that bag into int8 codes — the expensive work —
//     so concurrent writers derive in parallel;
//  2. the lake commits and delivers the event (with the prepared payload)
//     in version order;
//  3. apply performs the precomputed index insertions on the lake's
//     dispatcher goroutine — the one writer of every index, in version
//     order — and the lake publishes the event's version once it returns.

// indexOp is one instance's precomputed insertion into both families: its
// bag of terms, and its vector row's codes and inverse norm as
// vecindex.Quantize wrote them.
type indexOp struct {
	kind  datalake.Kind
	id    string
	bag   textutil.Bag
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
		if err := ix.bm25[op.kind].AddTerms(op.id, op.bag); err != nil {
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
// each serialized instance is analyzed once, and the same bag feeds its
// BM25 op and its vector row, summed in one accumulator the event reuses.
func (ix *Indexer) prepareEvent(ev datalake.Event) *preparedEvent {
	pe := &preparedEvent{}
	acc := make(embed.Vector, ix.emb.Dim())
	switch ev.Kind {
	case datalake.KindTable:
		t := ev.Table
		pe.codes = make([]int8, 0, (1+t.NumRows())*len(acc))
		pe.addInstance(ix, acc, datalake.KindTable, datalake.TableInstanceID(t.ID), t.SerializeForIndex())
		if ix.wantKind(datalake.KindTuple) {
			for row := range t.Rows {
				tp, _ := t.TupleAt(row)
				pe.addInstance(ix, acc, datalake.KindTuple, datalake.TupleInstanceID(t.ID, row), tp.SerializeForIndex())
			}
		}
	case datalake.KindText:
		pe.addInstance(ix, acc, datalake.KindText, datalake.TextInstanceID(ev.Doc.ID), ev.Doc.SerializeForIndex())
	}
	return pe
}

// addInstance analyzes one serialized instance of a configured kind once
// and appends its op to the payload, summing the row in acc: EmbedText's
// sum of the same bag, normalized, then quantized.
func (pe *preparedEvent) addInstance(ix *Indexer, acc embed.Vector, kind datalake.Kind, id, text string) {
	if !ix.wantKind(kind) {
		return
	}
	bag := textutil.Analyze(text)
	clear(acc)
	ix.emb.AddBag(acc, bag)
	embed.Normalize(acc)
	off := len(pe.codes)
	pe.codes = slices.Grow(pe.codes, len(acc))[:off+len(acc)]
	codes := pe.codes[off:]
	pe.ops = append(pe.ops, indexOp{kind: kind, id: id, bag: bag, codes: codes, norm: vecindex.Quantize(codes, acc)})
}

// apply is the lake's application stage: it runs on the lake's dispatcher
// goroutine in version order and performs one committed event's
// precomputed insertions (or, for a triple, re-indexes the subject's
// entity page).
func (ix *Indexer) apply(ev datalake.Event) error {
	if ev.Kind == datalake.KindEntity {
		if !ix.wantKind(datalake.KindEntity) {
			return nil
		}
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
		// event's prepare and commit): derive it now, on the dispatcher.
		pe = ix.prepareEvent(ev)
	}
	return ix.applyOps(pe)
}
