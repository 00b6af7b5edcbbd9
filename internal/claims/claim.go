// Package claims models textual claims about tabular data: a structured
// representation (entities, attribute, optional aggregation, stated value),
// a natural-language renderer, a parser that recovers structure from text,
// and an evaluator that checks a claim against a table by actually executing
// the implied lookup or aggregation.
//
// This package is the shared reasoning substrate of the verifiers: the
// PASTA-style local model executes claims against tables (the paper's
// "table-operations aware fact verification"), and the simulated ChatGPT
// verifier uses the same machinery with a different error profile. It also
// reproduces the Figure 4 case, where a sum over three players' prize money
// refutes the claim.
package claims

import (
	"fmt"
	"strings"
)

// AggOp is the aggregation a claim applies over the matched rows.
type AggOp int

const (
	// OpLookup states the attribute value of a single entity.
	OpLookup AggOp = iota
	// OpSum states the total of the attribute over the listed entities.
	OpSum
	// OpAvg states the average of the attribute over the listed entities.
	OpAvg
	// OpMin states the minimum of the attribute over the listed entities.
	OpMin
	// OpMax states the maximum of the attribute over the listed entities.
	OpMax
	// OpCount states how many rows have the attribute equal to the value.
	OpCount
)

// String implements fmt.Stringer.
func (op AggOp) String() string {
	switch op {
	case OpLookup:
		return "lookup"
	case OpSum:
		return "sum"
	case OpAvg:
		return "avg"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpCount:
		return "count"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// Claim is a structured textual claim about a table.
type Claim struct {
	// Text is the natural-language form. Populated by Render or by the
	// workload generator; Parse fills the structured fields from it.
	Text string
	// Context is the table caption the claim refers to ("1954 u.s. open
	// (golf)"). Claims in the TabFact-style workload always carry context.
	Context string
	// Entities are the subject entities (key values) the claim ranges over.
	// Empty for OpCount claims, singleton for OpLookup.
	Entities []string
	// Attribute is the column the claim addresses.
	Attribute string
	// Op is the aggregation.
	Op AggOp
	// Value is the stated value (number rendered as string, or categorical).
	Value string
}

// Render produces the canonical natural-language form of the claim and
// stores it in Text. The templates are the ones the synthetic TabFact-style
// workload uses, so Parse∘Render is the identity on structured fields.
func (c *Claim) Render() string {
	ents := joinEntities(c.Entities)
	var s string
	switch c.Op {
	case OpLookup:
		s = fmt.Sprintf("In %s, the %s for %s was %s.", c.Context, c.Attribute, ents, c.Value)
	case OpSum:
		s = fmt.Sprintf("In %s, the %s for %s was %s in total.", c.Context, c.Attribute, ents, c.Value)
	case OpAvg:
		s = fmt.Sprintf("In %s, the %s for %s was %s on average.", c.Context, c.Attribute, ents, c.Value)
	case OpMin:
		s = fmt.Sprintf("In %s, the lowest %s among %s was %s.", c.Context, c.Attribute, ents, c.Value)
	case OpMax:
		s = fmt.Sprintf("In %s, the highest %s among %s was %s.", c.Context, c.Attribute, ents, c.Value)
	case OpCount:
		s = fmt.Sprintf("In %s, %s rows had a %s of %s.", c.Context, c.Value, c.Attribute, valueOrBlank(c.Entities))
	}
	c.Text = s
	return s
}

// joinEntities renders an entity list as "a", "a and b", or "a, b, and c".
func joinEntities(es []string) string {
	switch len(es) {
	case 0:
		return ""
	case 1:
		return es[0]
	case 2:
		return es[0] + " and " + es[1]
	default:
		return strings.Join(es[:len(es)-1], ", ") + ", and " + es[len(es)-1]
	}
}

// valueOrBlank renders the count-claim target value, stored as the sole
// entity slot for OpCount.
func valueOrBlank(es []string) string {
	if len(es) == 0 {
		return ""
	}
	return es[0]
}
