// Package metrics provides the evaluation measures the paper reports:
// recall for retrieval (Table 1) and accuracy for verification (Table 2).
package metrics

// RecallTally accumulates per-task retrieval hits: a task counts as recalled
// when at least one relevant instance appears in the retrieved top-k, the
// paper's evaluation rule ("as we have a small number of relevant data, we
// evaluate the retrieval process using only the recall metric").
type RecallTally struct {
	hits  int
	total int
}

// Observe records one task: retrieved IDs vs the set of relevant IDs.
func (r *RecallTally) Observe(retrieved []string, relevant map[string]struct{}) {
	r.total++
	for _, id := range retrieved {
		if _, ok := relevant[id]; ok {
			r.hits++
			return
		}
	}
}

// Add records a pre-judged task outcome.
func (r *RecallTally) Add(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// Recall returns hits/total (0 when empty).
func (r RecallTally) Recall() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Total returns the number of observed tasks.
func (r RecallTally) Total() int { return r.total }

// AccuracyTally accumulates correct/total decisions.
type AccuracyTally struct {
	correct int
	total   int
}

// Observe records one decision.
func (a *AccuracyTally) Observe(correct bool) {
	a.total++
	if correct {
		a.correct++
	}
}

// Accuracy returns correct/total (0 when empty).
func (a AccuracyTally) Accuracy() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.correct) / float64(a.total)
}

// Total returns the number of observed decisions.
func (a AccuracyTally) Total() int { return a.total }

// Correct returns the number of correct decisions.
func (a AccuracyTally) Correct() int { return a.correct }
