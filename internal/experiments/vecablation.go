package experiments

import (
	"fmt"
	"time"

	"repro/internal/datalake"
	"repro/internal/vecindex"
)

// QuantizationPoint measures the int8 vector index the server runs
// (vecindex.SQFlat) against the float32 exact scan (vecindex.Flat) on
// identical vectors and queries.
type QuantizationPoint struct {
	// K is the cutoff measured.
	K int
	// TableRecall is the mean overlap@k between the two top-k lists over
	// the lake's table vectors, queried with the claim tasks; TupleRecall
	// the same over its tuple vectors, queried with the imputed tuples of
	// the tuple tasks. Recall against the exact results, not against task
	// ground truth, isolates the quantization error. No re-rank pass.
	TableRecall, TupleRecall float64
	// QueryMicros / ExactQueryMicros are mean per-query scan latencies
	// over the tuple vectors, the larger set.
	QueryMicros      float64
	ExactQueryMicros float64
}

// AblateQuantization embeds the lake's tables and tuples as the indexer
// does, indexes each set in both forms, and reports how often the int8
// top-k agrees with the exact top-k. The acceptance bar is recall@10 >=
// 0.99 on both sets.
func (e *Env) AblateQuantization(k int) (QuantizationPoint, error) {
	emb, lake := e.Indexer.Embedder(), e.Corpus.Lake
	pt := QuantizationPoint{K: k}
	// recall indexes texts under ids in both forms and queries both; the
	// latencies it leaves in pt are those of its last call.
	recall := func(ids, texts, queries []string) (float64, error) {
		sq, exact := vecindex.NewSQFlat(emb.Dim()), vecindex.NewFlat(emb.Dim())
		for i, text := range texts {
			v := emb.EmbedText(text)
			if err := sq.Add(ids[i], v); err != nil {
				return 0, err
			}
			if err := exact.Add(ids[i], v); err != nil {
				return 0, err
			}
		}
		var overlap, total int
		var exactElapsed, sqElapsed time.Duration
		for _, query := range queries {
			q := emb.EmbedText(query)
			start := time.Now()
			want := exact.Search(q, k)
			exactElapsed += time.Since(start)
			start = time.Now()
			got := sq.Search(q, k)
			sqElapsed += time.Since(start)
			in := make(map[string]bool, len(want))
			for _, h := range want {
				in[h.ID] = true
			}
			for _, h := range got {
				if in[h.ID] {
					overlap++
				}
			}
			total += len(want)
		}
		pt.QueryMicros = float64(sqElapsed.Microseconds()) / float64(len(queries))
		pt.ExactQueryMicros = float64(exactElapsed.Microseconds()) / float64(len(queries))
		return float64(overlap) / float64(total), nil
	}

	var tableIDs, tableTexts, tupleIDs, tupleTexts, claimQueries, tupleQueries []string
	for _, tid := range lake.TableIDs() {
		t, _ := lake.Table(tid)
		tableIDs, tableTexts = append(tableIDs, datalake.TableInstanceID(tid)), append(tableTexts, t.SerializeForIndex())
		for row := range t.Rows {
			tp, _ := t.TupleAt(row)
			tupleIDs, tupleTexts = append(tupleIDs, datalake.TupleInstanceID(tid, row)), append(tupleTexts, tp.SerializeForIndex())
		}
	}
	for i, task := range e.ClaimTasks {
		claimQueries = append(claimQueries, e.ClaimObject(i, task).Query())
	}
	for _, task := range e.TupleTasks {
		_, imputed := e.Impute(task)
		tupleQueries = append(tupleQueries, e.TupleObject(task, imputed).Query())
	}
	var err error
	if pt.TableRecall, err = recall(tableIDs, tableTexts, claimQueries); err != nil {
		return pt, fmt.Errorf("experiments: index tables: %w", err)
	}
	if pt.TupleRecall, err = recall(tupleIDs, tupleTexts, tupleQueries); err != nil {
		return pt, fmt.Errorf("experiments: index tuples: %w", err)
	}
	return pt, nil
}
