package experiments

import (
	"repro/internal/datalake"
	"repro/internal/metrics"
	"repro/internal/verify"
)

// Table1Result reproduces Table 1: recall of the task-agnostic retrieval
// stage, per (generated data type, retrieved data type) pair.
//
//	paper: (tuple, tuple) 0.99 @ top-3
//	       (tuple, text)  0.58 @ top-3
//	       (claim, table) 0.88 @ top-5
type Table1Result struct {
	TupleTupleRecall float64
	TupleTextRecall  float64
	ClaimTableRecall float64
	TupleN           int
	ClaimN           int
}

// Table1 measures retrieval recall with the paper's evaluation rule: a task
// is recalled when any relevant instance appears in the retrieved top-k.
// Relevance follows the paper's definition — the original counterpart tuple,
// the entity pages of entities in the tuple, and the claim's source table.
func (e *Env) Table1() (Table1Result, error) {
	var tt, tx, ct metrics.RecallTally

	for _, task := range e.TupleTasks {
		imputed, tuple := e.Impute(task)
		_ = imputed
		g := e.TupleObject(task, tuple)

		_, tupleIDs := e.Pipeline.Retrieve(g, topKTuples, datalake.KindTuple)
		tt.Observe(trim(tupleIDs, topKTuples), set(task.RelevantTupleID))

		_, textIDs := e.Pipeline.Retrieve(g, topKTexts, datalake.KindText)
		tx.Observe(trim(textIDs, topKTexts), set(task.RelevantDocIDs...))
	}

	for i, task := range e.ClaimTasks {
		g := e.ClaimObject(i, task)
		_, tableIDs := e.Pipeline.Retrieve(g, topKTables, datalake.KindTable)
		ct.Observe(trim(tableIDs, topKTables), set(task.RelevantTableID()))
	}

	return Table1Result{
		TupleTupleRecall: tt.Recall(),
		TupleTextRecall:  tx.Recall(),
		ClaimTableRecall: ct.Recall(),
		TupleN:           tt.Total(),
		ClaimN:           ct.Total(),
	}, nil
}

// RetrievedEvidence returns the evaluation evidence set for one tuple task:
// the top-k tuples and top-k texts (paper: 3 + 3), resolved.
func (e *Env) RetrievedEvidence(g verify.Generated) ([]datalake.Instance, error) {
	_, tupleIDs := e.Pipeline.Retrieve(g, topKTuples, datalake.KindTuple)
	_, textIDs := e.Pipeline.Retrieve(g, topKTexts, datalake.KindText)
	ids := append(trim(tupleIDs, topKTuples), trim(textIDs, topKTexts)...)
	return e.ResolveAll(ids)
}

// RetrievedTables returns the top-k tables for a claim object, resolved.
func (e *Env) RetrievedTables(g verify.Generated) ([]datalake.Instance, error) {
	_, ids := e.Pipeline.Retrieve(g, topKTables, datalake.KindTable)
	return e.ResolveAll(trim(ids, topKTables))
}

// trim bounds a candidate list to k entries.
func trim(ids []string, k int) []string {
	if len(ids) > k {
		return ids[:k]
	}
	return ids
}

// set builds a membership set from IDs.
func set(ids ...string) map[string]struct{} {
	m := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		m[id] = struct{}{}
	}
	return m
}
