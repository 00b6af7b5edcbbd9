// Package llm simulates the generative AI whose outputs VerifAI verifies.
//
// The paper measures exactly one property of the generator: its accuracy
// without evidence — 0.52 when imputing missing tuple values and 0.54 when
// judging textual claims ("The accuracy of ChatGPT in imputing missing
// values for tuples and determining the correctness of claims is only 0.52
// and 0.54, respectively, in the absence of additional data"). This package
// reproduces those statistics deterministically: the simulated model "knows"
// each fact with the configured probability, keyed by a stable hash of the
// fact's identity, and produces a plausible wrong answer otherwise.
//
// It also carries the paper's tuple-completion prompt template, so the
// examples show the same interaction shape as the original system.
package llm

import (
	"strings"

	"repro/internal/detrand"
	"repro/internal/table"
)

// Defaults are the no-evidence accuracies the paper reports for ChatGPT.
const (
	// DefaultTupleAccuracy is the probability an imputed cell is correct.
	DefaultTupleAccuracy = 0.52
	// DefaultClaimAccuracy is the probability a claim judgment is correct.
	DefaultClaimAccuracy = 0.54
)

// Generator simulates a large language model completing tuples and judging
// claims from parametric "world knowledge" alone.
type Generator struct {
	seed          uint64
	tupleAccuracy float64
	claimAccuracy float64
}

// NewGenerator returns a simulated generator seeded by seed, with the
// paper's accuracies.
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		seed:          seed,
		tupleAccuracy: DefaultTupleAccuracy,
		claimAccuracy: DefaultClaimAccuracy,
	}
}

// CompleteTuple imputes the value of the masked attribute of a tuple.
// factKey stably identifies the fact (e.g. "tableID#row#attr"); truth is the
// ground-truth value; alternatives are plausible wrong values of the same
// attribute domain (values from other rows). The model returns truth with
// the configured accuracy and otherwise a deterministic wrong alternative.
func (g *Generator) CompleteTuple(factKey, truth string, alternatives []string) string {
	if detrand.Bernoulli(g.tupleAccuracy, g.seed, "tuple", factKey) {
		return truth
	}
	// Hallucinate: pick an alternative different from the truth.
	var alts []string
	for _, a := range alternatives {
		if a != truth && a != "" {
			alts = append(alts, a)
		}
	}
	if len(alts) == 0 {
		// No in-domain alternative; fabricate a near-miss.
		return fabricate(truth, g.seed, factKey)
	}
	i := int(detrand.Hash(g.seed, "alt", factKey) % uint64(len(alts)))
	return alts[i]
}

// JudgeClaim returns the model's no-evidence true/false judgment of a claim.
// factKey stably identifies the claim; label is its ground truth. The
// judgment is correct with the configured claim accuracy.
func (g *Generator) JudgeClaim(factKey string, label bool) bool {
	if detrand.Bernoulli(g.claimAccuracy, g.seed, "claim", factKey) {
		return label
	}
	return !label
}

// fabricate produces a deterministic plausible-but-wrong value: numeric
// truths get shifted, strings get a generic substitute.
func fabricate(truth string, seed uint64, key string) string {
	if truth == "" {
		return "unknown"
	}
	// Numeric-looking truth: shift the last digit run.
	digits := strings.IndexFunc(truth, func(r rune) bool { return r >= '0' && r <= '9' })
	if digits >= 0 {
		shift := 1 + int(detrand.Hash(seed, "shift", key)%9)
		return shiftDigits(truth, shift)
	}
	return truth + " ii"
}

// shiftDigits adds shift to the first digit run in s, preserving the rest.
func shiftDigits(s string, shift int) string {
	start := -1
	end := -1
	for i, r := range s {
		if r >= '0' && r <= '9' {
			if start < 0 {
				start = i
			}
			end = i + 1
		} else if start >= 0 {
			break
		}
	}
	if start < 0 {
		return s + " ii"
	}
	n := 0
	for _, r := range s[start:end] {
		n = n*10 + int(r-'0')
	}
	n += shift
	var b strings.Builder
	b.WriteString(s[:start])
	b.WriteString(itoa(n))
	b.WriteString(s[end:])
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TupleCompletionPrompt renders the paper's tuple-completion prompt template
// for a table containing Missing cells.
func TupleCompletionPrompt(t *table.Table) string {
	var b strings.Builder
	b.WriteString("Question:\n")
	b.WriteString(t.String())
	b.WriteString("Please fill the missing values, annotated by ")
	b.WriteString(table.Missing)
	b.WriteString("\n")
	return b.String()
}
