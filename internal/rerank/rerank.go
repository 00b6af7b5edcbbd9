// Package rerank implements VerifAI's Reranker module: task-aware,
// fine-grained rescoring of the task-agnostic top-k retrieved by the
// Indexer, so that downstream verification only needs a small top-k′
// (Section 3.2 of the paper, k′ = 5).
//
// Three rerankers are provided, matching the paper's inventory:
//
//   - ColBERT-style late interaction for (text, text) pairs (colbert.go);
//   - OpenTFV-style semantic matching for (text, table) pairs (opentfv.go);
//   - RetClean-style cell alignment for (tuple, tuple) and a title/context
//     scorer for (tuple, text) pairs (tuplerank.go), the "different types of
//     fine-grained Rerankers" the paper's remark says are in progress.
//
// A Registry routes each (query kind, instance kind) pair to its scorer.
package rerank

import (
	"sort"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/table"
)

// Query is the generated data object from the reranker's point of view:
// the serialized text plus whatever structure is available.
type Query struct {
	// Text is the full serialized form (always set).
	Text string
	// Tuple is set for tuple-completion queries.
	Tuple *table.Tuple
	// Claim is set for textual-claim queries.
	Claim *claims.Claim
}

// Scored pairs an instance ID with a reranker score (higher is better).
type Scored struct {
	ID    string
	Score float64
}

// Scorer computes a task-aware relevance score for (query, instance).
type Scorer interface {
	// Name identifies the scorer for provenance.
	Name() string
	// Score returns the relevance of inst to q; higher is better.
	Score(q Query, inst datalake.Instance) float64
}

// Registry routes (query, instance-kind) pairs to scorers.
type Registry struct {
	tupleTuple Scorer
	tupleText  Scorer
	claimTable Scorer
	claimText  Scorer
	fallback   Scorer
}

// NewRegistry returns a registry with the full scorer inventory.
// colbert's embedder must be the one the semantic index uses, so
// late-interaction scores live in the same space; its term dictionary is
// the one every scorer analyzes through.
func NewRegistry(colbert *ColBERT) *Registry {
	dict := colbert.emb.Dict()
	return &Registry{
		tupleTuple: NewTupleTupleScorer(),
		tupleText:  NewTupleTextScorer(dict),
		claimTable: NewOpenTFV(dict),
		claimText:  colbert,
		fallback:   colbert,
	}
}

// Route returns the scorer for this query/instance-kind pair.
func (r *Registry) Route(q Query, kind datalake.Kind) Scorer {
	switch {
	case q.Tuple != nil && kind == datalake.KindTuple:
		return r.tupleTuple
	case q.Tuple != nil && kind == datalake.KindText:
		return r.tupleText
	case q.Claim != nil && (kind == datalake.KindTable || kind == datalake.KindTuple):
		return r.claimTable
	case q.Claim != nil && kind == datalake.KindText:
		return r.claimText
	default:
		return r.fallback
	}
}

// Rerank rescores the candidate instances with the routed scorer and
// returns the top-k′, best first, ties broken by ascending ID. Instances
// whose scorer routing differs (mixed modalities) are each scored by their
// own scorer; scores are comparable enough for final ordering because every
// scorer is normalized to [0,1].
func (r *Registry) Rerank(q Query, candidates []datalake.Instance, kPrime int) []Scored {
	if kPrime <= 0 || len(candidates) == 0 {
		return nil
	}
	out := make([]Scored, 0, len(candidates))
	for _, inst := range candidates {
		s := r.Route(q, inst.Kind).Score(q, inst)
		out = append(out, Scored{ID: inst.ID, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > kPrime {
		out = out[:kPrime]
	}
	return out
}
