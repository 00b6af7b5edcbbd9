package verify

import (
	"fmt"

	"repro/internal/datalake"
)

// Agent decides which Verifier to use for a given (g, x) pair, as in
// Figure 3 of the paper. Local (specific) verifiers are preferred when
// registered and applicable — the paper motivates them with data privacy
// and better accuracy — and the one-size-fits-all LLM verifier is the
// fallback. An agent with no locals registered always uses the fallback
// (the paper's "ChatGPT by default for simplicity" mode).
type Agent struct {
	locals   []Verifier
	fallback Verifier
}

// AgentOption configures an Agent.
type AgentOption func(*Agent)

// WithLocalVerifier registers a local (task-specific) verifier. Locals are
// consulted in registration order.
func WithLocalVerifier(v Verifier) AgentOption {
	return func(a *Agent) { a.locals = append(a.locals, v) }
}

// NewAgent returns an agent with the given fallback (typically the
// LLMVerifier). Panics on a nil fallback: the agent must always be able to
// decide.
func NewAgent(fallback Verifier, opts ...AgentOption) *Agent {
	if fallback == nil {
		panic("verify: agent needs a fallback verifier")
	}
	a := &Agent{fallback: fallback}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Route returns the verifier the agent would use for this pair.
func (a *Agent) Route(g Generated, evidenceKind datalake.Kind) Verifier {
	for _, v := range a.locals {
		if v.Supports(g, evidenceKind) {
			return v
		}
	}
	return a.fallback
}

// Verify dispatches the pair to the routed verifier.
func (a *Agent) Verify(g Generated, ev datalake.Instance) (Result, error) {
	v := a.Route(g, ev.Kind)
	res, err := v.Verify(g, ev)
	if err != nil {
		return Result{}, fmt.Errorf("verify: %s: %w", v.Name(), err)
	}
	return res, nil
}
