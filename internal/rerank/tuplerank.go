package rerank

import (
	"strings"

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
func (s *TupleTupleScorer) Score(q Query, inst datalake.Instance) float64 {
	if q.Tuple == nil || inst.Kind != datalake.KindTuple {
		return 0
	}
	ev := inst.Tuple
	capSim := textutil.Jaccard(textutil.Tokenize(q.Tuple.Caption), textutil.Tokenize(ev.Caption))

	shared, agree := 0, 0
	for i, c := range q.Tuple.Columns {
		evVal, ok := ev.Value(c)
		if !ok {
			continue
		}
		shared++
		qv := q.Tuple.Values[i]
		// Missing cells (the masked attribute) count as neutral agreement:
		// the query tuple legitimately lacks that value.
		if qv == "" || qv == "NaN" || textutil.Fold(evVal) == textutil.Fold(qv) {
			agree++
		}
	}
	cellSim := 0.0
	if shared > 0 {
		cellSim = float64(agree) / float64(shared)
	}
	return s.captionWeight*capSim + s.cellWeight*cellSim
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
func (s *TupleTextScorer) Score(q Query, inst datalake.Instance) float64 {
	if q.Tuple == nil || inst.Kind != datalake.KindText {
		return 0
	}
	d := inst.Doc
	title := textutil.Fold(d.Title)

	titleSig := 0.0
	for _, v := range q.Tuple.Values {
		if f := textutil.Fold(v); f != "" && f == title {
			titleSig = 1
			break
		}
	}

	ctxSig := 0.0
	if strings.Contains(textutil.Fold(d.Text), textutil.Fold(q.Tuple.Caption)) {
		ctxSig = 1
	}

	tokenSig := textutil.ContainmentSimilarity(
		s.dict.AppendTerms(nil, q.Text),
		s.dict.AppendTerms(nil, d.SerializeForIndex()),
	)

	return s.titleWeight*titleSig + s.contextWeight*ctxSig + s.tokenWeight*tokenSig
}
