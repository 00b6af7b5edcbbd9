package rerank

import (
	"strings"

	"repro/internal/datalake"
	"repro/internal/table"
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
func (o *OpenTFV) Score(q Query, inst datalake.Instance) float64 {
	var t *table.Table
	switch inst.Kind {
	case datalake.KindTable:
		t = inst.Table
	case datalake.KindTuple:
		t = table.New(inst.Tuple.TableID, inst.Tuple.Caption, inst.Tuple.Columns)
		t.Rows = [][]string{inst.Tuple.Values}
	default:
		return 0
	}
	if q.Claim == nil {
		// Unstructured fallback: token containment of the query in the
		// serialized table.
		return textutil.ContainmentSimilarity(
			o.dict.AppendTerms(nil, q.Text),
			o.dict.AppendTerms(nil, t.SerializeForIndex()),
		)
	}
	c := q.Claim

	capSim := textutil.Jaccard(textutil.Tokenize(c.Context), textutil.Tokenize(t.Caption))

	entityCov := 0.0
	if len(c.Entities) > 0 {
		hit := 0
		for _, e := range c.Entities {
			if tableContains(t, e) {
				hit++
			}
		}
		entityCov = float64(hit) / float64(len(c.Entities))
	}

	valueSig := 0.0
	attrTokens := textutil.Tokenize(c.Attribute)
	colTokens := textutil.Tokenize(joinColumns(t))
	if textutil.ContainmentSimilarity(attrTokens, colTokens) >= 0.5 {
		valueSig += 0.5
	}
	if tableContains(t, c.Value) {
		valueSig += 0.5
	}

	return o.captionWeight*capSim + o.entityWeight*entityCov + o.valueWeight*valueSig
}

// tableContains reports whether any cell folds equal to v, or for numeric v
// whether any cell carries the same number. v is folded and parsed once;
// cells are compared in place, so a table without a match costs no
// allocation when v is already folded.
func tableContains(t *table.Table, v string) bool {
	want := textutil.Fold(v)
	num, isNum := textutil.ParseNumber(v)
	for _, row := range t.Rows {
		for _, cell := range row {
			if textutil.FoldEqual(cell, want) {
				return true
			}
			if isNum {
				if cv, ok := textutil.ParseNumber(cell); ok && textutil.NearlyEqual(cv, num) {
					return true
				}
			}
		}
	}
	return false
}

func joinColumns(t *table.Table) string { return strings.Join(t.Columns, " ") }
