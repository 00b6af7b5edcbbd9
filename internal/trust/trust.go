// Package trust estimates the trustworthiness of data-lake sources —
// challenge C3 of the paper — in the style of Knowledge-Based Trust (Dong
// et al., VLDB 2015): sources that tend to agree with the consensus on many
// data items earn higher trust, and the consensus itself is computed with
// trust-weighted votes, iterated to a fixed point.
//
// The same machinery powers trust-weighted verdict resolution: when several
// retrieved instances disagree about a generated object, their votes are
// weighted by their sources' estimated trust.
package trust

import (
	"math"
	"sort"
)

// Vote is one source's assertion about a data item: the source claims the
// item has the given value (for verification, the value is the verdict).
type Vote struct {
	// SourceID is the asserting source.
	SourceID string
	// ItemID identifies the data item the assertion is about.
	ItemID string
	// Value is the asserted value.
	Value string
}

const (
	// maxRounds bounds the number of estimation rounds.
	maxRounds = 20
	// epsilon is the convergence threshold on the max trust delta.
	epsilon = 1e-6
	// damping keeps trust away from the degenerate 0/1 extremes, playing
	// the role of the Beta prior in KBT.
	damping = 0.1
)

// Estimate runs the iterative trust estimation over the votes and returns
// per-source trust in [0.05, 0.95] (damping/2 from either extreme). priors
// seeds per-source trust; sources without a prior start at 0.5, and
// sources with no votes keep their prior.
func Estimate(votes []Vote, priors map[string]float64) map[string]float64 {
	return estimate(votes, priors, maxRounds)
}

// estimate is Estimate bounded to rounds rounds.
func estimate(votes []Vote, priors map[string]float64, rounds int) map[string]float64 {
	trust := make(map[string]float64)
	bySource := make(map[string][]int)
	byItem := make(map[string][]int)
	for i, v := range votes {
		bySource[v.SourceID] = append(bySource[v.SourceID], i)
		byItem[v.ItemID] = append(byItem[v.ItemID], i)
		if _, ok := trust[v.SourceID]; !ok {
			if p, has := priors[v.SourceID]; has {
				trust[v.SourceID] = clamp(p)
			} else {
				trust[v.SourceID] = 0.5
			}
		}
	}

	for iter := 0; iter < rounds; iter++ {
		// E-step: per item, the trust-weighted consensus value.
		consensus := make(map[string]string, len(byItem))
		for item, idxs := range byItem {
			weights := make(map[string]float64)
			for _, i := range idxs {
				weights[votes[i].Value] += trust[votes[i].SourceID]
			}
			best, bestW := "", math.Inf(-1)
			// Deterministic tie-break by value string.
			keys := make([]string, 0, len(weights))
			for v := range weights {
				keys = append(keys, v)
			}
			sort.Strings(keys)
			for _, v := range keys {
				if weights[v] > bestW {
					best, bestW = v, weights[v]
				}
			}
			consensus[item] = best
		}
		// M-step: per source, the fraction of votes matching consensus.
		maxDelta := 0.0
		for src, idxs := range bySource {
			agree := 0
			for _, i := range idxs {
				if consensus[votes[i].ItemID] == votes[i].Value {
					agree++
				}
			}
			raw := float64(agree) / float64(len(idxs))
			next := clamp(raw)
			if d := math.Abs(next - trust[src]); d > maxDelta {
				maxDelta = d
			}
			trust[src] = next
		}
		if maxDelta < epsilon {
			break
		}
	}
	// Sources from priors that cast no votes keep their prior.
	for src, p := range priors {
		if _, voted := bySource[src]; !voted {
			trust[src] = clamp(p)
		}
	}
	return trust
}

// clamp squeezes t into [damping/2, 1-damping/2].
func clamp(t float64) float64 {
	lo, hi := damping/2, 1-damping/2
	if t < lo {
		return lo
	}
	if t > hi {
		return hi
	}
	return t
}

// WeightedVerdict resolves disagreeing verdict votes by trust-weighted
// majority. votes maps verdict label → slice of source trusts that voted
// for it; the result is the label with the largest summed weight, with
// deterministic tie-break by label. Unknown (zero) trusts count as 0.5.
// The second return is the winning label's share of total weight in (0,1].
func WeightedVerdict(votes map[string][]float64) (string, float64) {
	if len(votes) == 0 {
		return "", 0
	}
	labels := make([]string, 0, len(votes))
	for l := range votes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	total := 0.0
	sums := make(map[string]float64, len(votes))
	for _, l := range labels {
		for _, t := range votes[l] {
			if t == 0 {
				t = 0.5
			}
			w := t
			sums[l] += w
			total += w
		}
	}
	best, bestW := "", -1.0
	for _, l := range labels {
		if sums[l] > bestW {
			best, bestW = l, sums[l]
		}
	}
	if total == 0 {
		return best, 0
	}
	return best, bestW / total
}
