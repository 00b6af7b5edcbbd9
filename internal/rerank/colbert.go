package rerank

import (
	"runtime"

	"repro/internal/datalake"
	"repro/internal/embed"
)

// ColBERT scores (text, text) pairs with late interaction over token
// embeddings (Khattab & Zaharia, SIGIR 2020): every query token is matched
// against its most similar document token (MaxSim) and the per-token maxima
// are averaged. This is the paper's (text, text) reranker.
//
// Document token embeddings are capped at maxDocTokens to bound cost, as in
// the original system's document truncation.
type ColBERT struct {
	emb          *embed.Embedder
	maxDocTokens int
}

// NewColBERT returns a late-interaction scorer over emb's token space,
// analyzing through emb's term dictionary, which it never adds to.
func NewColBERT(emb *embed.Embedder, maxDocTokens int) *ColBERT {
	if maxDocTokens <= 0 {
		maxDocTokens = 256
	}
	return &ColBERT{emb: emb, maxDocTokens: maxDocTokens}
}

// Name implements Scorer.
func (c *ColBERT) Name() string { return "colbert-late-interaction" }

// Score implements Scorer: mean MaxSim over query tokens, normalized to
// [0,1] (token vectors are unit-norm, so cosine ∈ [-1,1]).
func (c *ColBERT) Score(q Query, inst datalake.Instance) float64 { return c.bind(q)(inst) }

func (c *ColBERT) bind(q Query) func(datalake.Instance) float64 {
	qTokens := c.emb.EmbedTokens(q.Text)
	if len(qTokens) == 0 {
		return zero
	}
	return func(inst datalake.Instance) float64 {
		dTokens := c.emb.EmbedTokens(inst.Serialize())
		if len(dTokens) > c.maxDocTokens {
			dTokens = dTokens[:c.maxDocTokens]
		}
		if len(dTokens) == 0 {
			return 0
		}
		var sum float64
		for _, qt := range qTokens {
			best := -1.0
			for _, dt := range dTokens {
				if s := embed.Dot(qt, dt); s > best {
					best = s
				}
			}
			sum += best
		}
		runtime.KeepAlive(c.emb) // the token vectors view its table
		mean := sum / float64(len(qTokens))
		return (mean + 1) / 2
	}
}
