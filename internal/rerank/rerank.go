// Package rerank implements VerifAI's Reranker module: task-aware,
// fine-grained rescoring of the task-agnostic top-k retrieved by the
// Indexer, so that downstream verification only needs a small top-k′
// (Section 3.2 of the paper, k′ = 5).
//
// Four scorers are provided, for the paper's three rerankers and the
// remark that more are in progress:
//
//   - ColBERT-style late interaction for (text, text) pairs (colbert.go);
//   - OpenTFV-style semantic matching for (text, table) pairs (opentfv.go);
//   - RetClean-style cell alignment for (tuple, tuple) pairs and a
//     title/context scorer for (tuple, text) pairs (tuplerank.go), the
//     "different types of fine-grained Rerankers" the paper's remark says
//     are in progress.
//
// A Registry routes each (query kind, instance kind) pair to its scorer.
// It analyzes the query once per Rerank call — tokens, folded keys, parsed
// numbers, analyzed terms — and scores each candidate in place: the
// candidate side folds, tokenizes and matches without allocating.
package rerank

import (
	"slices"
	"strings"

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
//
// A candidate's strings may alias the memory of a sealed catalog segment
// (see datalake.Lake.ResolveBorrowed), valid only while the caller holds
// the catalog: Score must not keep them, or anything that holds them,
// past its return.
type Scorer interface {
	// Name identifies the scorer for provenance.
	Name() string
	// Score returns the relevance of inst to q; higher is better.
	Score(q Query, inst datalake.Instance) float64
}

// scorer is a Scorer that analyzes a query once: bind returns the score
// of each candidate against q, as Score(q, candidate) would give it. The
// function it returns keeps nothing of a candidate once it returns.
type scorer interface {
	Scorer
	bind(q Query) func(inst datalake.Instance) float64
}

// zero scores every candidate 0, as a scorer does every candidate of a
// query it does not apply to.
func zero(datalake.Instance) float64 { return 0 }

// Registry routes (query, instance-kind) pairs to scorers.
type Registry struct {
	tupleTuple scorer
	tupleText  scorer
	claimTable scorer
	claimText  scorer
	fallback   scorer
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
func (r *Registry) Route(q Query, kind datalake.Kind) Scorer { return r.route(q, kind) }

func (r *Registry) route(q Query, kind datalake.Kind) scorer {
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
// scorer is normalized to [0,1]. Each scorer a candidate routes to analyzes
// q once, on its first candidate. The candidates may borrow their strings
// (see Scorer); nothing Rerank returns holds them.
func (r *Registry) Rerank(q Query, candidates []datalake.Instance, kPrime int) []Scored {
	if kPrime <= 0 || len(candidates) == 0 {
		return nil
	}
	type bound struct {
		s     scorer
		score func(datalake.Instance) float64
	}
	var bounds []bound
	out := make([]Scored, len(candidates))
	for i, inst := range candidates {
		s := r.route(q, inst.Kind)
		k := slices.IndexFunc(bounds, func(b bound) bool { return b.s == s })
		if k < 0 {
			k = len(bounds)
			bounds = append(bounds, bound{s, s.bind(q)})
		}
		out[i] = Scored{ID: inst.ID, Score: bounds[k].score(inst)}
	}
	slices.SortFunc(out, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
	if len(out) > kPrime {
		out = out[:kPrime]
	}
	return out
}
