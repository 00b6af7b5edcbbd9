package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/detrand"
	"repro/internal/table"
	"repro/internal/textutil"
)

// TupleTask is one tuple-completion query from Section 4: a lake tuple with
// one non-key attribute masked, to be imputed by the generator and then
// verified against the lake.
type TupleTask struct {
	// TableID and Row address the original tuple in the lake.
	TableID string
	Row     int
	// MaskedCol is the column whose value was removed.
	MaskedCol int
	// TrueValue is the removed (ground-truth) cell value.
	TrueValue string
	// Tuple is the original complete tuple.
	Tuple table.Tuple
	// KeyCol is the table's entity column.
	KeyCol int
	// RelevantTupleID is the instance ID of the original counterpart tuple
	// (the paper's definition of relevant tuple evidence).
	RelevantTupleID string
	// RelevantDocIDs are the instance IDs of entity pages about entities in
	// the tuple (the paper's definition of relevant text evidence).
	RelevantDocIDs []string
}

// MaskedAttr returns the masked column's name.
func (t TupleTask) MaskedAttr() string { return t.Tuple.Columns[t.MaskedCol] }

// Entity returns the tuple's key (entity) value.
func (t TupleTask) Entity() string { return t.Tuple.Values[t.KeyCol] }

// TupleTasks samples n tuple-completion tasks. Tasks are drawn from tables
// whose rows contain person entities with text pages, so that both the
// (tuple→tuple) and (tuple→text) retrieval experiments are well defined, as
// in the paper where the 100 tuples come from entity-linked web tables.
func (c *Corpus) TupleTasks(n int) ([]TupleTask, error) {
	r := detrand.New(c.Config.Seed, "tuple-tasks")
	// Candidate tables: person-bearing domains with at least 2 rows.
	var candidates []*table.Table
	for _, t := range c.Tables {
		d := c.domainOf(t)
		if len(d.personCols) > 0 && t.NumRows() >= 2 {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("workload: no person-bearing tables to sample tuple tasks from")
	}
	tasks := make([]TupleTask, 0, n)
	seen := make(map[string]struct{})
	for tries := 0; len(tasks) < n && tries < 50*n; tries++ {
		t := candidates[r.Intn(len(candidates))]
		d := c.domainOf(t)
		row := r.Intn(t.NumRows())
		key := t.ID + "#" + strconv.Itoa(row)
		if _, dup := seen[key]; dup {
			continue
		}
		// The masked column is a non-key attribute, per the paper's setup
		// ("randomly removed a non-key attribute cell value").
		col := d.attrCols[r.Intn(len(d.attrCols))]
		if col == d.keyCol {
			continue
		}
		tp, ok := t.TupleAt(row)
		if !ok {
			continue
		}
		// Relevant text evidence: pages about person entities in this row.
		var docs []string
		for _, pc := range d.personCols {
			if docID, ok := c.EntityDocs[textutil.Fold(t.Rows[row][pc])]; ok {
				docs = append(docs, datalake.TextInstanceID(docID))
			}
		}
		if len(docs) == 0 {
			// Keep tasks answerable by both modalities.
			continue
		}
		seen[key] = struct{}{}
		tasks = append(tasks, TupleTask{
			TableID:         t.ID,
			Row:             row,
			MaskedCol:       col,
			TrueValue:       t.Rows[row][col],
			Tuple:           tp,
			KeyCol:          d.keyCol,
			RelevantTupleID: datalake.TupleInstanceID(t.ID, row),
			RelevantDocIDs:  docs,
		})
	}
	if len(tasks) < n {
		return nil, fmt.Errorf("workload: could only sample %d of %d tuple tasks", len(tasks), n)
	}
	return tasks, nil
}

// ClaimTask is one TabFact-style textual claim with a truth label and its
// relevant table.
type ClaimTask struct {
	// Claim is the structured claim; Claim.Text is the natural-language form.
	Claim claims.Claim
	// Label is the ground truth: true when the claim holds in its table.
	Label bool
	// TableID identifies the relevant table (instance table:<TableID>).
	TableID string
}

// RelevantTableID returns the lake instance ID of the claim's table.
func (ct ClaimTask) RelevantTableID() string {
	return datalake.TableInstanceID(ct.TableID)
}

// ClaimTasks samples n labeled claims, half true and half false in
// expectation. Claim operations mix lookups with the aggregation claims the
// paper's Figure 4 illustrates (sum/avg/min/max over 2–3 entities) and
// count claims.
func (c *Corpus) ClaimTasks(n int) ([]ClaimTask, error) {
	r := detrand.New(c.Config.Seed, "claim-tasks")
	if len(c.Tables) == 0 {
		return nil, fmt.Errorf("workload: empty corpus")
	}
	tasks := make([]ClaimTask, 0, n)
	for tries := 0; len(tasks) < n && tries < 100*n; tries++ {
		t := c.Tables[r.Intn(len(c.Tables))]
		d := c.domainOf(t)
		if t.NumRows() < 3 {
			continue
		}
		truth := r.Bool(0.5)
		var cl claims.Claim
		var ok bool
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // 50% lookup
			cl, ok = c.genLookupClaim(r, t, d, truth)
		case 5, 6, 7: // 30% numeric aggregate
			cl, ok = c.genAggClaim(r, t, d, truth)
		default: // 20% count
			cl, ok = c.genCountClaim(r, t, d, truth)
		}
		if !ok {
			continue
		}
		// Human claim writers paraphrase: a fifth of the claims refer to
		// the table without its year ("ohio congressional districts" for
		// "ohio congressional districts 1994"), which is what keeps
		// claim→table retrieval from being trivial.
		if r.Bool(0.2) {
			if ctx, changed := dropYearToken(t.Caption); changed {
				cl.Context = ctx
			}
		}
		cl.Render()
		// Sanity: the claim must evaluate on its own table to the intended
		// label; otherwise (e.g. ambiguous entity) skip it.
		out, _ := claims.Eval(cl, t)
		if truth && out != claims.Supports {
			continue
		}
		if !truth && out != claims.Refutes {
			continue
		}
		tasks = append(tasks, ClaimTask{Claim: cl, Label: truth, TableID: t.ID})
	}
	if len(tasks) < n {
		return nil, fmt.Errorf("workload: could only sample %d of %d claim tasks", len(tasks), n)
	}
	return tasks, nil
}

// genLookupClaim builds a single-entity attribute claim.
func (c *Corpus) genLookupClaim(r *detrand.Rand, t *table.Table, d domainGen, truth bool) (claims.Claim, bool) {
	col := d.attrCols[r.Intn(len(d.attrCols))]
	row := r.Intn(t.NumRows())
	entity := t.Rows[row][d.keyCol]
	value := t.Rows[row][col]
	if value == "" || entity == "" {
		return claims.Claim{}, false
	}
	if !truth {
		var ok bool
		value, ok = perturbValue(r, t, col, value)
		if !ok {
			return claims.Claim{}, false
		}
	}
	return claims.Claim{
		Context:   t.Caption,
		Entities:  []string{entity},
		Attribute: t.Columns[col],
		Op:        claims.OpLookup,
		Value:     value,
	}, true
}

// genAggClaim builds a sum/avg/min/max claim over 2–3 entities of a numeric
// column, the Figure 4 pattern.
func (c *Corpus) genAggClaim(r *detrand.Rand, t *table.Table, d domainGen, truth bool) (claims.Claim, bool) {
	// Pick a numeric attribute column.
	var numCols []int
	for _, col := range d.attrCols {
		if t.IsNumericColumn(col) {
			numCols = append(numCols, col)
		}
	}
	if len(numCols) == 0 {
		return claims.Claim{}, false
	}
	col := numCols[r.Intn(len(numCols))]
	k := r.IntRange(2, 3)
	if k > t.NumRows() {
		return claims.Claim{}, false
	}
	perm := r.Perm(t.NumRows())
	entities := make([]string, 0, k)
	vals := make([]float64, 0, k)
	seen := make(map[string]struct{})
	for _, row := range perm {
		e := t.Rows[row][d.keyCol]
		f := textutil.Fold(e)
		if _, dup := seen[f]; dup || e == "" {
			continue
		}
		v, ok := textutil.ParseNumber(t.Rows[row][col])
		if !ok {
			continue
		}
		seen[f] = struct{}{}
		entities = append(entities, e)
		vals = append(vals, v)
		if len(entities) == k {
			break
		}
	}
	if len(entities) < k {
		return claims.Claim{}, false
	}
	ops := []claims.AggOp{claims.OpSum, claims.OpAvg, claims.OpMin, claims.OpMax}
	op := ops[r.Intn(len(ops))]
	var actual float64
	switch op {
	case claims.OpSum:
		for _, v := range vals {
			actual += v
		}
	case claims.OpAvg:
		for _, v := range vals {
			actual += v
		}
		actual /= float64(len(vals))
	case claims.OpMin:
		actual = vals[0]
		for _, v := range vals[1:] {
			if v < actual {
				actual = v
			}
		}
	case claims.OpMax:
		actual = vals[0]
		for _, v := range vals[1:] {
			if v > actual {
				actual = v
			}
		}
	}
	value := formatFloat(actual)
	if !truth {
		delta := float64(r.IntRange(1, 9)) * pickScale(actual)
		if r.Bool(0.2) {
			delta = -delta
		}
		wrong := actual + delta
		if textutil.NearlyEqual(wrong, actual) {
			wrong = actual + 1
		}
		value = formatFloat(wrong)
	}
	return claims.Claim{
		Context:   t.Caption,
		Entities:  entities,
		Attribute: t.Columns[col],
		Op:        op,
		Value:     value,
	}, true
}

// genCountClaim builds a "k rows had a <attr> of <v>" claim.
func (c *Corpus) genCountClaim(r *detrand.Rand, t *table.Table, d domainGen, truth bool) (claims.Claim, bool) {
	col := d.attrCols[r.Intn(len(d.attrCols))]
	row := r.Intn(t.NumRows())
	target := t.Rows[row][col]
	if target == "" {
		return claims.Claim{}, false
	}
	n := 0
	for _, rr := range t.Rows {
		if textutil.Fold(rr[col]) == textutil.Fold(target) {
			n++
		}
	}
	count := n
	if !truth {
		count = n + r.IntRange(1, 3)
		if r.Bool(0.5) && n > 1 {
			count = n - 1
		}
	}
	return claims.Claim{
		Context:   t.Caption,
		Entities:  []string{target},
		Attribute: t.Columns[col],
		Op:        claims.OpCount,
		Value:     strconv.Itoa(count),
	}, true
}

// dropYearToken removes the first 4-digit year token from a caption,
// returning the paraphrased caption and whether anything changed. Captions
// with fewer than four tokens are left alone so the paraphrase stays
// recognizable (token Jaccard >= 0.7 against the original).
func dropYearToken(caption string) (string, bool) {
	fields := strings.Fields(caption)
	if len(fields) < 4 {
		return caption, false
	}
	for i, f := range fields {
		if len(f) == 4 && f >= "1000" && f <= "2999" && textutil.IsNumeric(f) {
			out := append(append([]string(nil), fields[:i]...), fields[i+1:]...)
			return strings.Join(out, " "), true
		}
	}
	return caption, false
}

// perturbValue produces a wrong-but-plausible replacement for a cell value:
// numeric cells get shifted; categorical cells get another value from the
// same column domain.
func perturbValue(r *detrand.Rand, t *table.Table, col int, value string) (string, bool) {
	if v, ok := textutil.ParseNumber(value); ok && t.IsNumericColumn(col) {
		delta := float64(r.IntRange(1, 9)) * pickScale(v)
		if r.Bool(0.2) {
			delta = -delta
		}
		wrong := v + delta
		if textutil.NearlyEqual(wrong, v) {
			wrong = v + 1
		}
		return formatFloat(wrong), true
	}
	// Categorical: sample another distinct value from the column.
	want := textutil.Fold(value)
	var alts []string
	for _, row := range t.Rows {
		if textutil.Fold(row[col]) != want && row[col] != "" {
			alts = append(alts, row[col])
		}
	}
	if len(alts) == 0 {
		// Fall back to a global vocabulary swap.
		return value + " jr", true
	}
	return alts[r.Intn(len(alts))], true
}

// pickScale chooses a perturbation granularity proportional to the value's
// magnitude so wrong values stay plausible.
func pickScale(v float64) float64 {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 10000:
		return 100
	case av >= 1000:
		return 50
	case av >= 100:
		return 10
	default:
		return 1
	}
}

// formatFloat renders a float without a spurious fraction.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
