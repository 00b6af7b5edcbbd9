package experiments

import (
	"sync"
	"testing"

	"repro/internal/verify"
	"repro/internal/workload"
)

// testConfig keeps the harness tests fast while preserving task structure.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Corpus.NumTables = 400
	cfg.Corpus.NumTexts = 300
	cfg.NumTupleTasks = 40
	cfg.NumClaimTasks = 60
	return cfg
}

// sharedEnv builds one environment for the whole test package; Build is the
// expensive step and the experiments only read from it.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = Build(testConfig()) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestBuildEnv(t *testing.T) {
	env := sharedEnv(t)
	if len(env.TupleTasks) != 40 || len(env.ClaimTasks) != 60 {
		t.Fatalf("tasks = %d/%d", len(env.TupleTasks), len(env.ClaimTasks))
	}
	stats := env.Corpus.Lake.Stats()
	if stats.Tables != 400+4 { // +4 case tables
		t.Errorf("tables = %d", stats.Tables)
	}
}

func TestBaselineInRange(t *testing.T) {
	env := sharedEnv(t)
	r := env.Baseline()
	// Small-sample tolerance around the paper's 0.52 / 0.54.
	if r.TupleAccuracy < 0.3 || r.TupleAccuracy > 0.75 {
		t.Errorf("tuple baseline = %v", r.TupleAccuracy)
	}
	if r.ClaimAccuracy < 0.35 || r.ClaimAccuracy > 0.75 {
		t.Errorf("claim baseline = %v", r.ClaimAccuracy)
	}
	if r.TupleN != 40 || r.ClaimN != 60 {
		t.Errorf("ns = %d/%d", r.TupleN, r.ClaimN)
	}
}

func TestTable1Shapes(t *testing.T) {
	env := sharedEnv(t)
	r, err := env.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: tuple→tuple ≫ claim→table > tuple→text.
	if r.TupleTupleRecall < 0.9 {
		t.Errorf("tuple→tuple recall = %v", r.TupleTupleRecall)
	}
	if r.ClaimTableRecall < 0.6 {
		t.Errorf("claim→table recall = %v", r.ClaimTableRecall)
	}
	if !(r.TupleTupleRecall >= r.ClaimTableRecall && r.ClaimTableRecall >= r.TupleTextRecall) {
		t.Errorf("shape violated: %v >= %v >= %v", r.TupleTupleRecall, r.ClaimTableRecall, r.TupleTextRecall)
	}
}

func TestTable2Shapes(t *testing.T) {
	env := sharedEnv(t)
	r, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's crossover: PASTA beats ChatGPT on relevant tables,
	// ChatGPT beats PASTA on retrieved tables.
	if r.RelevantTablePasta <= r.RelevantTableChatGPT {
		t.Errorf("relevant-table crossover missing: pasta %v vs gpt %v",
			r.RelevantTablePasta, r.RelevantTableChatGPT)
	}
	if r.RetrievedTableChatGPT <= r.RetrievedTablePasta {
		t.Errorf("retrieved-table crossover missing: gpt %v vs pasta %v",
			r.RetrievedTableChatGPT, r.RetrievedTablePasta)
	}
	// ChatGPT improves from relevant-only to the retrieved mix (easy
	// "not related" credit), the paper's 0.75 → 0.91 shape.
	if r.RetrievedTableChatGPT <= r.RelevantTableChatGPT {
		t.Errorf("ChatGPT retrieved %v <= relevant %v", r.RetrievedTableChatGPT, r.RelevantTableChatGPT)
	}
	if r.TupleChatGPT < 0.75 || r.TupleChatGPT > 0.99 {
		t.Errorf("tuple verifier accuracy = %v", r.TupleChatGPT)
	}
	if r.TuplePairs == 0 || r.RelevantPairs != 60 || r.RetrievedPairs == 0 {
		t.Errorf("pair counts: %d/%d/%d", r.TuplePairs, r.RelevantPairs, r.RetrievedPairs)
	}
}

func TestFigure1Cases(t *testing.T) {
	env := sharedEnv(t)
	r, err := env.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []CaseOutcome{r.TupleCorrect, r.TupleWrong, r.TextClaim} {
		if !c.Match() {
			t.Errorf("case %q: verdict %v, expected %v", c.Description, c.Verdict, c.Expected)
		}
		if c.Explanation == "" {
			t.Errorf("case %q: no explanation", c.Description)
		}
	}
}

func TestFigure4Case(t *testing.T) {
	env := sharedEnv(t)
	r, err := env.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !r.E1Retrieved {
		t.Fatal("E1 (1954 table) not retrieved")
	}
	if r.E1Verdict != verify.Refuted {
		t.Errorf("E1 verdict = %v", r.E1Verdict)
	}
	if r.E2Retrieved && r.E2Verdict != verify.NotRelated {
		t.Errorf("E2 verdict = %v", r.E2Verdict)
	}
	if !r.Final.Match() {
		t.Errorf("final verdict = %v", r.Final.Verdict)
	}
	if r.E1Explanation == "" {
		t.Error("E1 has no explanation")
	}
}

func TestImputeUsesColumnDomain(t *testing.T) {
	env := sharedEnv(t)
	task := env.TupleTasks[0]
	imputed, tuple := env.Impute(task)
	if v, _ := tuple.Value(task.MaskedAttr()); v != imputed {
		t.Errorf("imputed tuple value %q != imputed %q", v, imputed)
	}
	// Determinism.
	again, _ := env.Impute(task)
	if again != imputed {
		t.Error("Impute not deterministic")
	}
}

func TestAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	env := sharedEnv(t)
	r, err := env.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	// Combiner: combined must be at least as good as the weaker family.
	weaker := r.CombinerClaimTable["vector"]
	if r.CombinerClaimTable["bm25"] < weaker {
		weaker = r.CombinerClaimTable["bm25"]
	}
	if r.CombinerClaimTable["combined"] < weaker {
		t.Errorf("combined %v below weaker family %v", r.CombinerClaimTable["combined"], weaker)
	}
	// Reranker: with-reranker recall@1 must not be worse than without.
	if p := r.RerankerAt[1]; p.With < p.Without {
		t.Errorf("reranker hurts recall@1: %v < %v", p.With, p.Without)
	}
	// TopK: recall is monotone in k.
	prev := -1.0
	for _, k := range []int{1, 3, 5, 10, 20, 50, 100} {
		if r.TopK[k] < prev {
			t.Errorf("recall not monotone at k=%d: %v < %v", k, r.TopK[k], prev)
		}
		prev = r.TopK[k]
	}
	// Trust: weighting must beat uniform under the corrupted majority.
	if r.TrustPriors <= r.TrustUniform {
		t.Errorf("trust priors %v <= uniform %v", r.TrustPriors, r.TrustUniform)
	}
	if r.TrustEstimated <= r.TrustUniform {
		t.Errorf("learned trust %v <= uniform %v", r.TrustEstimated, r.TrustUniform)
	}
	// Learned trusts separate clean from corrupted sources.
	if r.EstimatedTrusts[workload.SourceTables] <= r.EstimatedTrusts["noisy-mirror-a"] {
		t.Errorf("learned trusts not separated: %v", r.EstimatedTrusts)
	}
	if out := r.Format(); len(out) == 0 {
		t.Error("Format returned nothing")
	}
}

// TestAblateQuantizationRecall holds the int8 index, with no re-rank pass,
// to the float32 exact scan's neighbours on the default workload lake (the
// one the serving benchmark loads: 3,000 tables, ~24k tuples): its table
// vectors under the claim tasks' queries and its tuple vectors under the
// tuple tasks'.
func TestAblateQuantizationRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	env, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Indexer.Close()
	pt, err := env.AblateQuantization(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("int8 recall@%d vs exact: tables %.4f, tuples %.4f (int8 %.0fµs, exact %.0fµs per tuple-set scan)",
		pt.K, pt.TableRecall, pt.TupleRecall, pt.QueryMicros, pt.ExactQueryMicros)
	if pt.TableRecall < 0.99 || pt.TupleRecall < 0.99 {
		t.Errorf("int8 recall@%d = %.4f (tables) / %.4f (tuples), want >= 0.99", pt.K, pt.TableRecall, pt.TupleRecall)
	}
}
