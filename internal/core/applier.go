package core

import (
	"fmt"

	"repro/internal/datalake"
	"repro/internal/doc"
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
//  3. apply partitions the precomputed index operations by shard and hands
//     them to per-shard applier goroutines, which consume their ordered
//     queues and perform the cheap index insertions. The lake publishes
//     the event's version once every shard reports completion.
//
// Because the dispatcher enqueues per-shard tasks in version order, each
// shard applies events in version order; cross-shard completion may
// reorder, which is why visibility is defined by the lake's published
// version watermark, not by hook return order.

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

// applyTask is one unit of work on a shard applier's queue: either a batch
// of precomputed index ops for that shard (ops != nil), or an entity
// re-index (ops == nil; the serialization must read the post-commit graph,
// so it cannot be precomputed before the lake's write lock). The entity
// name may legitimately be empty — the graph accepts any triple — so the
// discriminator is ops, not entity.
type applyTask struct {
	ops *shardOps
	// entity is the canonical entity name and rev the number of triples
	// about it when the event was dispatched (kg.Graph.Entity): the page
	// this event needs indexed.
	entity string
	rev    int
	done   func(error)
}

// shardOps groups one event's precomputed ops routed to a single shard.
type shardOps struct {
	bm25 []bm25Op
	vec  []vecOp
}

// applierQueueSize bounds each shard applier's task queue. The dispatcher
// blocks enqueueing to a full shard (backpressure), which in turn slows the
// lake's dispatcher rather than growing memory.
const applierQueueSize = 64

// startAppliers launches one applier goroutine per shard ordinal. Shard
// structures are only written by their own applier (plus the quiesced bulk
// load), so appliers never contend with each other on index locks.
func (ix *Indexer) startAppliers() {
	ix.appliers = make([]chan applyTask, ix.cfg.Shards)
	for i := range ix.appliers {
		ch := make(chan applyTask, applierQueueSize)
		ix.appliers[i] = ch
		ix.applierWG.Add(1)
		go func() {
			defer ix.applierWG.Done()
			for t := range ch {
				if t.ops == nil {
					t.done(ix.reindexEntity(i, t.entity, t.rev))
				} else {
					t.done(ix.applyOps(t.ops.bm25, t.ops.vec))
				}
			}
		}()
	}
}

// applyOps inserts precomputed operations into the indexes. It is the
// single insertion implementation behind both the per-shard appliers
// (live path) and the bulk load, so the two paths cannot drift in ID or
// serialization scheme.
func (ix *Indexer) applyOps(bm25 []bm25Op, vec []vecOp) error {
	for _, op := range bm25 {
		if err := ix.bm25[op.kind][ix.shard(op.id)].AddTerms(op.id, op.terms); err != nil {
			return fmt.Errorf("core: bm25 add %s: %w", op.id, err)
		}
	}
	for _, op := range vec {
		if err := ix.vec[op.kind][ix.shard(op.id)].Add(op.id, op.vec); err != nil {
			return fmt.Errorf("core: vector add %s: %w", op.id, err)
		}
	}
	return nil
}

// prepareHook is the lake's pre-commit stage: it derives every index
// operation the event implies, outside the lake's locks. Entity events
// return no payload — their serialization depends on the post-commit graph
// neighborhood, so the applier computes it at apply time.
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
		if ix.wantKind(datalake.KindTable) {
			pe.addInstance(ix, datalake.KindTable, datalake.TableInstanceID(t.ID), t.SerializeForIndex())
		}
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
			var terms [][]string
			var vecs []embed.Vector
			if len(ix.vec[datalake.KindTuple]) > 0 {
				terms, vecs = ix.emb.AnalyzeTexts(texts, 0)
			} else {
				terms = make([][]string, len(texts))
				for i, text := range texts {
					terms[i] = textutil.TokenizeFiltered(text)
				}
			}
			for i, id := range ids {
				if len(ix.bm25[datalake.KindTuple]) > 0 {
					pe.bm25 = append(pe.bm25, bm25Op{kind: datalake.KindTuple, id: id, terms: terms[i]})
				}
				if vecs != nil {
					pe.vec = append(pe.vec, vecOp{kind: datalake.KindTuple, id: id, vec: vecs[i]})
				}
			}
		}
	case datalake.KindText:
		if !ix.wantKind(datalake.KindText) {
			return pe
		}
		d := ev.Doc
		id := datalake.TextInstanceID(d.ID)
		if ix.cfg.ChunkTokens <= 0 || len(ix.vec[datalake.KindText]) == 0 {
			pe.addInstance(ix, datalake.KindText, id, d.SerializeForIndex())
			return pe
		}
		// Chunked: the content index takes the document whole, the vector
		// index one embedding per chunk.
		if len(ix.bm25[datalake.KindText]) > 0 {
			pe.bm25 = append(pe.bm25, bm25Op{kind: datalake.KindText, id: id, terms: textutil.TokenizeFiltered(d.SerializeForIndex())})
		}
		chunks := doc.ChunkDocument(d, ix.cfg.ChunkTokens)
		texts := make([]string, len(chunks))
		for i, ch := range chunks {
			texts[i] = d.Title + " " + ch.Text
		}
		for i, vec := range ix.emb.EmbedTexts(texts, 0) {
			pe.vec = append(pe.vec, vecOp{
				kind: datalake.KindText,
				id:   fmt.Sprintf("%s@%d", id, chunks[i].Seq),
				vec:  vec,
			})
		}
	}
	return pe
}

// addInstance analyzes one serialized instance once and appends its BM25
// and vector ops to the payload.
func (pe *preparedEvent) addInstance(ix *Indexer, kind datalake.Kind, id, text string) {
	wantBM25, wantVec := len(ix.bm25[kind]) > 0, len(ix.vec[kind]) > 0
	if !wantBM25 && !wantVec {
		return
	}
	terms := textutil.TokenizeFiltered(text)
	if wantBM25 {
		pe.bm25 = append(pe.bm25, bm25Op{kind: kind, id: id, terms: terms})
	}
	if wantVec {
		pe.vec = append(pe.vec, vecOp{kind: kind, id: id, vec: ix.emb.EmbedTerms(terms)})
	}
}

// apply is the lake's application stage: it routes one committed event's
// precomputed operations to the per-shard appliers and reports completion
// through done once every involved shard finishes. It runs on the lake's
// dispatcher goroutine in version order, so each shard's queue receives
// events in version order.
func (ix *Indexer) apply(ev datalake.Event, done func(error)) {
	if ev.Kind == datalake.KindEntity {
		if !ix.wantKind(datalake.KindEntity) {
			done(nil)
			return
		}
		// The triple is committed, so the graph knows its subject. The
		// instance is keyed by the canonical (first-seen) subject casing —
		// the same key bulk ingest derives from Graph.Entities() — so a
		// triple whose subject varies only in case updates the existing
		// instance instead of forking a new one.
		entity, rev := ix.lake.Graph().Entity(ev.Triple.Subject)
		s := ix.shard(datalake.EntityInstanceID(entity))
		ix.appliers[s] <- applyTask{entity: entity, rev: rev, done: done}
		return
	}

	pe, ok := ev.Payload.(*preparedEvent)
	if !ok {
		// No prepared payload (e.g. the subscriber registered between this
		// event's prepare and commit): derive it now, on the dispatcher.
		pe = ix.prepareEvent(ev)
	}
	perShard := make(map[int]*shardOps)
	group := func(s int) *shardOps {
		ops := perShard[s]
		if ops == nil {
			ops = &shardOps{}
			perShard[s] = ops
		}
		return ops
	}
	for _, op := range pe.bm25 {
		g := group(ix.shard(op.id))
		g.bm25 = append(g.bm25, op)
	}
	for _, op := range pe.vec {
		g := group(ix.shard(op.id))
		g.vec = append(g.vec, op)
	}
	if len(perShard) == 0 {
		done(nil)
		return
	}
	// Aggregate the per-shard completions into the single done call the
	// lake expects; the first error wins.
	c := datalake.NewCountdown(len(perShard), done)
	for s, ops := range perShard {
		ix.appliers[s] <- applyTask{ops: ops, done: c.Done}
	}
}
