package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/detrand"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/textutil"
	"repro/internal/trust"
	"repro/internal/verify"
	"repro/internal/workload"
)

// AblationsResult collects the design-choice ablations DESIGN.md lists.
type AblationsResult struct {
	// Combiner: recall of BM25-only vs vector-only vs combined retrieval,
	// justifying the two-index design of Section 3.1.
	CombinerClaimTable map[string]float64 // family -> recall@5
	CombinerTupleTuple map[string]float64 // family -> recall@3

	// Reranker: claim→table recall at small k′ with and without the
	// task-aware reranker (Section 3.2's motivation).
	RerankerAt map[int]RerankerPoint // k' -> recalls

	// TopK: claim→table recall as the task-agnostic k grows (the paper's
	// remark that task-agnostic retrieval needs large k).
	TopK map[int]float64

	// Trust: final-verdict accuracy with and without source-trust weighting
	// in the presence of a corrupted source (challenge C3).
	TrustUniform   float64
	TrustPriors    float64
	TrustEstimated float64
	TrustTasks     int
	// EstimatedTrusts are the learned source trusts.
	EstimatedTrusts map[string]float64
}

// RerankerPoint compares recall with/without reranking at one k′.
type RerankerPoint struct {
	With    float64
	Without float64
}

// Ablations runs every ablation on the built environment.
func (e *Env) Ablations() (AblationsResult, error) {
	res := AblationsResult{
		CombinerClaimTable: make(map[string]float64),
		CombinerTupleTuple: make(map[string]float64),
		RerankerAt:         make(map[int]RerankerPoint),
		TopK:               make(map[int]float64),
	}
	if err := e.AblateCombiner(&res); err != nil {
		return res, err
	}
	if err := e.AblateReranker(&res); err != nil {
		return res, err
	}
	if err := e.AblateTopK(&res); err != nil {
		return res, err
	}
	if err := e.AblateTrust(&res); err != nil {
		return res, err
	}
	return res, nil
}

// AblateCombiner measures each index family alone against the combination.
func (e *Env) AblateCombiner(res *AblationsResult) error {
	for _, family := range []string{"bm25", "vector", "combined"} {
		var ct, tt metrics.RecallTally
		for i, task := range e.ClaimTasks {
			g := e.ClaimObject(i, task)
			var ids []string
			if family == "combined" {
				_, ids = e.Pipeline.Retrieve(g, e.Config.TopKTables, datalake.KindTable)
			} else {
				ids = e.Pipeline.Indexer().RetrieveFamily(g.Query(), family, e.Config.TopKTables, datalake.KindTable)
			}
			ct.Observe(trim(ids, e.Config.TopKTables), set(task.RelevantTableID()))
		}
		for _, task := range e.TupleTasks {
			_, tuple := e.Impute(task)
			g := e.TupleObject(task, tuple)
			var ids []string
			if family == "combined" {
				_, ids = e.Pipeline.Retrieve(g, e.Config.TopKTuples, datalake.KindTuple)
			} else {
				ids = e.Pipeline.Indexer().RetrieveFamily(g.Query(), family, e.Config.TopKTuples, datalake.KindTuple)
			}
			tt.Observe(trim(ids, e.Config.TopKTuples), set(task.RelevantTupleID))
		}
		res.CombinerClaimTable[family] = ct.Recall()
		res.CombinerTupleTuple[family] = tt.Recall()
	}
	return nil
}

// AblateReranker compares recall@k′ of the task-aware reranker against
// plain combiner-order truncation, over a task-agnostic top-50 pool.
func (e *Env) AblateReranker(res *AblationsResult) error {
	const pool = 50
	for _, kPrime := range []int{1, 3, 5} {
		var with, without metrics.RecallTally
		for i, task := range e.ClaimTasks {
			g := e.ClaimObject(i, task)
			_, ids := e.Pipeline.Retrieve(g, pool, datalake.KindTable)
			relevant := set(task.RelevantTableID())

			without.Observe(trim(ids, kPrime), relevant)

			instances, err := e.ResolveAll(ids)
			if err != nil {
				return err
			}
			q := rerank.Query{Text: g.Query()}
			c := g.Claim
			q.Claim = &c
			scored := e.Registry.Rerank(q, instances, kPrime)
			top := make([]string, len(scored))
			for j, s := range scored {
				top[j] = s.ID
			}
			with.Observe(top, relevant)
		}
		res.RerankerAt[kPrime] = RerankerPoint{With: with.Recall(), Without: without.Recall()}
	}
	return nil
}

// AblateTopK sweeps the task-agnostic retrieval depth.
func (e *Env) AblateTopK(res *AblationsResult) error {
	for _, k := range []int{1, 3, 5, 10, 20, 50, 100} {
		var ct metrics.RecallTally
		for i, task := range e.ClaimTasks {
			g := e.ClaimObject(i, task)
			_, ids := e.Pipeline.Retrieve(g, k, datalake.KindTable)
			ct.Observe(trim(ids, k), set(task.RelevantTableID()))
		}
		res.TopK[k] = ct.Recall()
	}
	return nil
}

// AblateTrust builds a small lake containing a corrupted mirror source and
// measures final-verdict accuracy under three trust regimes: uniform,
// lake priors, and trust learned from cross-source agreement.
func (e *Env) AblateTrust(res *AblationsResult) error {
	cfg := e.Config.Corpus
	cfg.NumTables = 150
	cfg.NumTexts = 150
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		return err
	}
	// Two corrupted mirror sources outvote the clean source under naive
	// majority — the scenario where trust weighting earns its keep.
	noisySources := []string{"noisy-mirror-a", "noisy-mirror-b"}
	for _, ns := range noisySources {
		corpus.Lake.AddSource(datalake.Source{ID: ns, Name: "corrupted mirror " + ns, TrustPrior: 0.2})
	}

	tasks, err := corpus.TupleTasks(40)
	if err != nil {
		return err
	}

	// Mirror each task's table into both noisy sources, corrupting the
	// masked attribute of every row (so the mirrors refute true values).
	r := detrand.New(cfg.Seed, "trust-ablation")
	byTable := make(map[string][]workload.TupleTask)
	for _, t := range tasks {
		byTable[t.TableID] = append(byTable[t.TableID], t)
	}
	for tid := range byTable {
		orig, ok := corpus.Lake.Table(tid)
		if !ok {
			return fmt.Errorf("experiments: trust ablation: missing table %q", tid)
		}
		for _, ns := range noisySources {
			mirror := orig.Clone()
			mirror.ID = ns + "-" + orig.ID
			mirror.SourceID = ns
			for _, task := range byTable[tid] {
				for row := range mirror.Rows {
					mirror.Rows[row][task.MaskedCol] = corruptCell(r, mirror.Rows[row][task.MaskedCol])
				}
			}
			if err := corpus.Lake.AddTable(mirror); err != nil {
				return err
			}
		}
	}

	indexer, err := core.BuildIndexer(corpus.Lake, core.DefaultIndexerConfig(cfg.Seed))
	if err != nil {
		return err
	}
	// This lake is private to the ablation: shut its dispatcher down and
	// detach the indexer so repeated ablation runs don't accumulate
	// goroutines and pinned corpora.
	defer func() {
		_ = corpus.Lake.Close()
		indexer.Close()
	}()
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 256))
	agent := verify.NewAgent(verify.NewExactVerifier())

	run := func(trusts map[string]float64) (float64, []trust.Vote, error) {
		p, err := core.NewPipeline(corpus.Lake, indexer, registry, agent,
			provenance.NewStore(), trusts, experimentPipelineConfig())
		if err != nil {
			return 0, nil, err
		}
		var acc metrics.AccuracyTally
		var votes []trust.Vote
		for _, task := range tasks {
			// Impute the TRUE value: ground truth final verdict is Verified.
			g := verify.NewTupleObject("trust:"+task.TableID, task.Tuple, task.MaskedAttr())
			rep, err := p.Verify(g, datalake.KindTuple)
			if err != nil {
				return 0, nil, err
			}
			acc.Observe(rep.Verdict == verify.Verified)
			for _, ev := range rep.Evidence {
				if ev.Result.Verdict == verify.NotRelated {
					continue
				}
				votes = append(votes, trust.Vote{
					SourceID: ev.Instance.SourceID,
					ItemID:   g.ID,
					Value:    ev.Result.Verdict.String(),
				})
			}
		}
		return acc.Accuracy(), votes, nil
	}

	// Uniform trust: every source weighs 0.5 — two corrupted mirrors
	// outvote the clean original.
	uniform := map[string]float64{
		workload.SourceTables: 0.5, noisySources[0]: 0.5, noisySources[1]: 0.5,
	}
	accU, votes, err := run(uniform)
	if err != nil {
		return err
	}
	// Lake priors (0.8 clean vs 0.2 per mirror).
	priors := map[string]float64{
		workload.SourceTables: 0.8, noisySources[0]: 0.2, noisySources[1]: 0.2,
	}
	accP, _, err := run(priors)
	if err != nil {
		return err
	}
	// Trust learned from cross-source agreement, seeded with the lake
	// priors (knowledge-based trust needs a prior or external signal to
	// avoid locking onto the corrupted majority).
	learned := trust.Estimate(votes, trust.Config{Priors: priors})
	accE, _, err := run(learned)
	if err != nil {
		return err
	}

	res.TrustUniform = accU
	res.TrustPriors = accP
	res.TrustEstimated = accE
	res.TrustTasks = len(tasks)
	res.EstimatedTrusts = learned
	return nil
}

// corruptCell perturbs a cell value so the mirror disagrees with the truth:
// numeric cells get shifted, strings get a marker suffix.
func corruptCell(r *detrand.Rand, v string) string {
	if v == "" {
		return "unknown"
	}
	if n, ok := textutil.ParseNumber(v); ok && textutil.IsNumeric(v) {
		return strconv.FormatInt(int64(n)+int64(r.IntRange(1, 9)), 10)
	}
	return v + " x"
}

// Format renders the ablation results as an aligned report.
func (r AblationsResult) Format() string {
	var b strings.Builder
	b.WriteString("== Ablation: Combiner (index families) ==\n")
	b.WriteString("family     claim->table@5   tuple->tuple@3\n")
	for _, f := range []string{"bm25", "vector", "combined"} {
		fmt.Fprintf(&b, "%-10s %.2f             %.2f\n", f, r.CombinerClaimTable[f], r.CombinerTupleTuple[f])
	}
	b.WriteString("\n== Ablation: Reranker (claim->table recall@k') ==\n")
	b.WriteString("k'   with-reranker   without\n")
	for _, k := range []int{1, 3, 5} {
		p := r.RerankerAt[k]
		fmt.Fprintf(&b, "%-4d %.2f            %.2f\n", k, p.With, p.Without)
	}
	b.WriteString("\n== Ablation: task-agnostic top-k sweep (claim->table) ==\n")
	b.WriteString("k      recall\n")
	for _, k := range []int{1, 3, 5, 10, 20, 50, 100} {
		fmt.Fprintf(&b, "%-6d %.2f\n", k, r.TopK[k])
	}
	b.WriteString("\n== Ablation: trust-weighted resolution under a corrupted source ==\n")
	fmt.Fprintf(&b, "uniform trust:   %.2f   (n=%d)\n", r.TrustUniform, r.TrustTasks)
	fmt.Fprintf(&b, "lake priors:     %.2f\n", r.TrustPriors)
	fmt.Fprintf(&b, "learned (KBT):   %.2f\n", r.TrustEstimated)
	b.WriteString("learned source trusts:\n")
	for src, t := range r.EstimatedTrusts {
		fmt.Fprintf(&b, "  %-22s %.2f\n", src, t)
	}
	b.WriteString("\n")
	return b.String()
}
