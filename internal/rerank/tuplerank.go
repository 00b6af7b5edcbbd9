package rerank

import (
	"slices"

	"repro/internal/datalake"
	"repro/internal/textutil"
)

// TupleTupleScorer scores (tuple, tuple) pairs in the style of RetClean
// (Ahmad et al., 2023): schema-aligned cell agreement. The score is the
// weighted mix of caption similarity and the fraction of shared columns
// whose cells fold-equal, which puts a tuple's original counterpart ahead of
// same-schema strangers.
type TupleTupleScorer struct {
	captionWeight float64
	cellWeight    float64
}

// NewTupleTupleScorer returns the default scorer (0.3 caption / 0.7 cells).
func NewTupleTupleScorer() *TupleTupleScorer {
	return &TupleTupleScorer{captionWeight: 0.3, cellWeight: 0.7}
}

// Name implements Scorer.
func (s *TupleTupleScorer) Name() string { return "retclean-cell-alignment" }

// Score implements Scorer, normalized to [0,1].
func (s *TupleTupleScorer) Score(q Query, inst datalake.Instance) float64 { return s.bind(q)(inst) }

func (s *TupleTupleScorer) bind(q Query) func(datalake.Instance) float64 {
	if q.Tuple == nil {
		return zero
	}
	caption := newTokenSet(q.Tuple.Caption)
	cols := make([]string, len(q.Tuple.Columns))
	for i, c := range q.Tuple.Columns {
		cols[i] = textutil.Fold(c)
	}
	// Missing cells (the masked attribute) count as neutral agreement:
	// the query tuple legitimately lacks that value.
	vals := make([]string, len(q.Tuple.Values))
	neutral := make([]bool, len(q.Tuple.Values))
	for i, v := range q.Tuple.Values {
		neutral[i] = v == "" || v == "NaN"
		vals[i] = textutil.Fold(v)
	}
	return func(inst datalake.Instance) float64 {
		if inst.Kind != datalake.KindTuple {
			return 0
		}
		ev := inst.Tuple
		capSim := caption.jaccard(ev.Caption)

		shared, agree := 0, 0
		for i, col := range cols {
			j := slices.IndexFunc(ev.Columns, func(c string) bool { return textutil.FoldEqual(c, col) })
			if j < 0 {
				continue
			}
			shared++
			if neutral[i] || textutil.FoldEqual(ev.Values[j], vals[i]) {
				agree++
			}
		}
		cellSim := 0.0
		if shared > 0 {
			cellSim = float64(agree) / float64(shared)
		}
		return s.captionWeight*capSim + s.cellWeight*cellSim
	}
}

// TupleTextScorer scores (tuple, text) pairs: is this document the page of
// an entity in the tuple, and does it discuss the tuple's table context?
// This is the (tuple, text) instance of the fine-grained rerankers the
// paper's Section 3.2 remark announces.
type TupleTextScorer struct {
	dict          *textutil.Dict
	titleWeight   float64
	contextWeight float64
	tokenWeight   float64
}

// NewTupleTextScorer returns the default scorer (0.5 / 0.3 / 0.2),
// analyzing through dict, which it never adds to.
func NewTupleTextScorer(dict *textutil.Dict) *TupleTextScorer {
	return &TupleTextScorer{dict: dict, titleWeight: 0.5, contextWeight: 0.3, tokenWeight: 0.2}
}

// Name implements Scorer.
func (s *TupleTextScorer) Name() string { return "tuple-text-context" }

// Score implements Scorer, normalized to [0,1].
func (s *TupleTextScorer) Score(q Query, inst datalake.Instance) float64 { return s.bind(q)(inst) }

func (s *TupleTextScorer) bind(q Query) func(datalake.Instance) float64 {
	if q.Tuple == nil {
		return zero
	}
	var titles []string
	for _, v := range q.Tuple.Values {
		if f := textutil.Fold(v); f != "" {
			titles = append(titles, f)
		}
	}
	caption := textutil.Fold(q.Tuple.Caption)
	terms := newTermSet(s.dict, q.Text)
	return func(inst datalake.Instance) float64 {
		if inst.Kind != datalake.KindText {
			return 0
		}
		d := inst.Doc
		titleSig := 0.0
		if slices.ContainsFunc(titles, func(f string) bool { return textutil.FoldEqual(d.Title, f) }) {
			titleSig = 1
		}

		// A caption that folds to nothing names no context: every
		// document would contain it.
		ctxSig := 0.0
		if caption != "" && textutil.FoldContains(d.Text, caption) {
			ctxSig = 1
		}

		// The document's terms are its title's and then its text's, as
		// its serialization for the index reads.
		terms.reset()
		terms.scan(d.Title)
		terms.scan(d.Text)

		return s.titleWeight*titleSig + s.contextWeight*ctxSig + s.tokenWeight*terms.share()
	}
}
