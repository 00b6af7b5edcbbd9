package rerank

import (
	"repro/internal/datalake"
	"repro/internal/textutil"
)

// OpenTFV scores (text, table) pairs for open-domain table-based fact
// verification (Gu et al., SIGMOD 2022), the paper's (text, table)
// reranker. The score combines three signals the claim-table relationship
// depends on:
//
//   - caption match: does the claim's context name this table;
//   - entity coverage: how many claimed entities appear in the table;
//   - attribute/value overlap: does the table carry the claimed column and
//     value vocabulary.
//
// When the claim is structured (parsed), the signals are computed from its
// fields; otherwise they fall back to bag-of-words containment.
type OpenTFV struct {
	dict          *textutil.Dict
	captionWeight float64
	entityWeight  float64
	valueWeight   float64
}

// NewOpenTFV returns the scorer with the default signal weights
// (0.5 / 0.35 / 0.15 — caption identity dominates, as the Figure 4 E2 case
// shows that same-entity different-caption tables must rank below the true
// table), analyzing through dict, which it never adds to.
func NewOpenTFV(dict *textutil.Dict) *OpenTFV {
	return &OpenTFV{dict: dict, captionWeight: 0.5, entityWeight: 0.35, valueWeight: 0.15}
}

// Name implements Scorer.
func (o *OpenTFV) Name() string { return "opentfv-semantic" }

// Score implements Scorer, normalized to [0,1].
func (o *OpenTFV) Score(q Query, inst datalake.Instance) float64 { return o.bind(q)(inst) }

func (o *OpenTFV) bind(q Query) func(datalake.Instance) float64 {
	if q.Claim == nil {
		// Unstructured fallback: token containment of the query in the
		// serialized table.
		terms := newTermSet(o.dict, q.Text)
		return func(inst datalake.Instance) float64 {
			var one [1][]string
			caption, cols, rows, ok := tableOf(inst, &one)
			if !ok {
				return 0
			}
			terms.reset()
			terms.scan(caption)
			for _, c := range cols {
				terms.scan(c)
			}
			for _, row := range rows {
				for _, cell := range row {
					terms.scan(cell)
				}
			}
			return terms.share()
		}
	}
	c := q.Claim
	context, attr := newTokenSet(c.Context), newTokenSet(c.Attribute)
	entities := make([]cellKey, len(c.Entities))
	for i, e := range c.Entities {
		entities[i] = newCellKey(e)
	}
	value := newCellKey(c.Value)
	return func(inst datalake.Instance) float64 {
		var one [1][]string
		caption, cols, rows, ok := tableOf(inst, &one)
		if !ok {
			return 0
		}
		capSim := context.jaccard(caption)

		entityCov := 0.0
		if len(entities) > 0 {
			hit := 0
			for i := range entities {
				if entities[i].in(rows) {
					hit++
				}
			}
			entityCov = float64(hit) / float64(len(entities))
		}

		valueSig := 0.0
		if attr.containment(cols) >= 0.5 {
			valueSig += 0.5
		}
		if value.in(rows) {
			valueSig += 0.5
		}
		return o.captionWeight*capSim + o.entityWeight*entityCov + o.valueWeight*valueSig
	}
}

// tableOf reads a table or tuple candidate in place: its caption, column
// names and rows, a tuple's one row put in one.
func tableOf(inst datalake.Instance, one *[1][]string) (caption string, cols []string, rows [][]string, ok bool) {
	switch inst.Kind {
	case datalake.KindTable:
		return inst.Table.Caption, inst.Table.Columns, inst.Table.Rows, true
	case datalake.KindTuple:
		one[0] = inst.Tuple.Values
		return inst.Tuple.Caption, inst.Tuple.Columns, one[:], true
	}
	return "", nil, nil, false
}

// cellKey is a claimed value prepared for matching cells: its Fold key
// and, when it is a number, the number.
type cellKey struct {
	folded string
	num    float64
	isNum  bool
}

func newCellKey(v string) cellKey {
	num, isNum := textutil.ParseNumber(v)
	return cellKey{folded: textutil.Fold(v), num: num, isNum: isNum}
}

// in reports whether any cell of rows folds equal to the value, or for a
// number whether any cell carries the same number. Cells are compared in
// place, without allocating.
func (k *cellKey) in(rows [][]string) bool {
	for _, row := range rows {
		for _, cell := range row {
			if textutil.FoldEqual(cell, k.folded) {
				return true
			}
			if k.isNum {
				if cv, ok := textutil.ParseNumber(cell); ok && textutil.NearlyEqual(cv, k.num) {
					return true
				}
			}
		}
	}
	return false
}
