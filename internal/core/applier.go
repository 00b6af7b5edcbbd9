package core

import (
	"fmt"

	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/textutil"
)

// The live ingest path is pipelined in three stages (mirroring the lake's
// write path):
//
//  1. prepareHook runs on the ingesting goroutine before the lake's write
//     lock: it serializes the event's instances and computes their BM25
//     terms and embeddings — the expensive work — so concurrent writers
//     derive in parallel;
//  2. the lake commits and delivers the event (with the prepared payload)
//     in version order;
//  3. apply performs the precomputed index insertions on the lake's
//     dispatcher goroutine — the one writer of every index, in version
//     order — and the lake publishes the event's version once it returns.

// bm25Op is one precomputed content-index insertion.
type bm25Op struct {
	kind  datalake.Kind
	id    string
	terms []string
}

// vecOp is one precomputed semantic-index insertion.
type vecOp struct {
	kind datalake.Kind
	id   string
	vec  embed.Vector
}

// preparedEvent is the payload prepareHook attaches to a lake event: every
// index operation the event implies, with tokenization and embedding done.
type preparedEvent struct {
	bm25 []bm25Op
	vec  []vecOp
}

// applyOps inserts precomputed operations into the indexes. It is the
// single insertion implementation behind both the live path and the bulk
// load, so the two paths cannot drift in ID or serialization scheme.
func (ix *Indexer) applyOps(bm25 []bm25Op, vec []vecOp) error {
	for _, op := range bm25 {
		if err := ix.bm25[op.kind].AddTerms(op.id, op.terms); err != nil {
			return fmt.Errorf("core: bm25 add %s: %w", op.id, err)
		}
	}
	for _, op := range vec {
		if err := ix.vec[op.kind].Add(op.id, op.vec); err != nil {
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

// prepareEvent computes the precomputed payload for a table or text event.
// Each serialized instance is analyzed once, and the same terms feed its
// BM25 op and its embedding.
func (ix *Indexer) prepareEvent(ev datalake.Event) *preparedEvent {
	pe := &preparedEvent{}
	switch ev.Kind {
	case datalake.KindTable:
		t := ev.Table
		pe.addInstance(ix, datalake.KindTable, datalake.TableInstanceID(t.ID), t.SerializeForIndex())
		if ix.wantKind(datalake.KindTuple) {
			ids := make([]string, 0, t.NumRows())
			texts := make([]string, 0, t.NumRows())
			for row := range t.Rows {
				tp, _ := t.TupleAt(row)
				ids = append(ids, datalake.TupleInstanceID(t.ID, row))
				texts = append(texts, tp.SerializeForIndex())
			}
			// Batch the tuples: a wide table fans its rows across the
			// embedder's worker pool.
			terms, vecs := ix.emb.AnalyzeTexts(texts, 0)
			for i, id := range ids {
				pe.bm25 = append(pe.bm25, bm25Op{kind: datalake.KindTuple, id: id, terms: terms[i]})
				pe.vec = append(pe.vec, vecOp{kind: datalake.KindTuple, id: id, vec: vecs[i]})
			}
		}
	case datalake.KindText:
		pe.addInstance(ix, datalake.KindText, datalake.TextInstanceID(ev.Doc.ID), ev.Doc.SerializeForIndex())
	}
	return pe
}

// addInstance analyzes one serialized instance of a configured kind once
// and appends its BM25 and vector ops to the payload.
func (pe *preparedEvent) addInstance(ix *Indexer, kind datalake.Kind, id, text string) {
	if !ix.wantKind(kind) {
		return
	}
	terms := textutil.TokenizeFiltered(text)
	pe.bm25 = append(pe.bm25, bm25Op{kind: kind, id: id, terms: terms})
	pe.vec = append(pe.vec, vecOp{kind: kind, id: id, vec: ix.emb.EmbedTerms(terms)})
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
	return ix.applyOps(pe.bm25, pe.vec)
}
