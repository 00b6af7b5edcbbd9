// Command experiments regenerates every experimental result of the paper:
// the no-evidence baseline, Table 1 (retrieval recall), Table 2 (verifier
// accuracy), the Figure 1 and Figure 4 case studies, and the combiner,
// reranker, top-k and trust ablations.
//
// Usage:
//
//	experiments [-scale default|paper] [-seed N] [-exp all|baseline|table1|table2|figure1|figure4|ablations]
//	            [-tables N] [-texts N] [-claims N] [-tuples N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		scale  = flag.String("scale", "default", "corpus scale: default (fast) or paper (full Section 4 dimensions)")
		seed   = flag.Uint64("seed", 1, "deterministic seed")
		exp    = flag.String("exp", "all", "which experiment: all, baseline, table1, table2, figure1, figure4, ablations")
		tables = flag.Int("tables", 0, "override number of lake tables")
		texts  = flag.Int("texts", 0, "override number of lake text files")
		claims = flag.Int("claims", 0, "override number of claim tasks")
		tuples = flag.Int("tuples", 0, "override number of tuple tasks")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *scale == "paper" {
		cfg = experiments.PaperScaleConfig()
	}
	cfg.Corpus.Seed = *seed
	if *tables > 0 {
		cfg.Corpus.NumTables = *tables
	}
	if *texts > 0 {
		cfg.Corpus.NumTexts = *texts
	}
	if *claims > 0 {
		cfg.NumClaimTasks = *claims
	}
	if *tuples > 0 {
		cfg.NumTupleTasks = *tuples
	}

	fmt.Printf("building corpus: %d tables, <=%d texts, %d tuple tasks, %d claim tasks (seed %d)\n",
		cfg.Corpus.NumTables, cfg.Corpus.NumTexts, cfg.NumTupleTasks, cfg.NumClaimTasks, *seed)
	env, err := experiments.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := env.Corpus.Lake.Stats()
	fmt.Printf("lake: %d tables, %d tuples, %d texts, %d triples, %d sources\n\n",
		stats.Tables, stats.Tuples, stats.Docs, stats.Triples, stats.Sources)

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("baseline", func() error { return runBaseline(env) })
	run("table1", func() error { return runTable1(env) })
	run("table2", func() error { return runTable2(env) })
	run("figure1", func() error { return runFigure1(env) })
	run("figure4", func() error { return runFigure4(env) })
	run("ablations", func() error { return runAblations(env) })
	os.Exit(0)
}

func runBaseline(env *experiments.Env) error {
	r := env.Baseline()
	fmt.Println("== Baseline: generator accuracy without evidence (paper: 0.52 / 0.54) ==")
	fmt.Printf("  tuple imputation accuracy: %.2f  (n=%d)\n", r.TupleAccuracy, r.TupleN)
	fmt.Printf("  claim judgment accuracy:   %.2f  (n=%d)\n\n", r.ClaimAccuracy, r.ClaimN)
	return nil
}

func runTable1(env *experiments.Env) error {
	r, err := env.Table1()
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: recall on retrieved data instances ==")
	fmt.Println("generated type   retrieved type   recall   paper")
	fmt.Printf("tuple            tuple            %.2f     0.99\n", r.TupleTupleRecall)
	fmt.Printf("tuple            text             %.2f     0.58\n", r.TupleTextRecall)
	fmt.Printf("textual claim    table            %.2f     0.88\n\n", r.ClaimTableRecall)
	return nil
}

func runTable2(env *experiments.Env) error {
	r, err := env.Table2()
	if err != nil {
		return err
	}
	fmt.Println("== Table 2: evaluation on Verifier ==")
	fmt.Println("pair                        ChatGPT   PASTA    paper(ChatGPT/PASTA)")
	fmt.Printf("(tuple, tuple+text)         %.2f      n/a      0.88 / n/a   (%d pairs)\n", r.TupleChatGPT, r.TuplePairs)
	fmt.Printf("(text, relevant table)      %.2f      %.2f     0.75 / 0.89  (%d pairs)\n", r.RelevantTableChatGPT, r.RelevantTablePasta, r.RelevantPairs)
	fmt.Printf("(text, retrieved table)     %.2f      %.2f     0.91 / 0.72  (%d pairs)\n\n", r.RetrievedTableChatGPT, r.RetrievedTablePasta, r.RetrievedPairs)
	return nil
}

func runFigure1(env *experiments.Env) error {
	r, err := env.Figure1()
	if err != nil {
		return err
	}
	fmt.Println("== Figure 1: tuple completion and text generation case studies ==")
	for _, c := range []experiments.CaseOutcome{r.TupleCorrect, r.TupleWrong, r.TextClaim} {
		status := "OK"
		if !c.Match() {
			status = "MISMATCH"
		}
		fmt.Printf("  [%s] %s\n      verdict=%v expected=%v\n      %s\n", status, c.Description, c.Verdict, c.Expected, c.Explanation)
	}
	fmt.Println()
	return nil
}

func runFigure4(env *experiments.Env) error {
	r, err := env.Figure4()
	if err != nil {
		return err
	}
	fmt.Println("== Figure 4: verifying a textual claim using retrieved tables ==")
	fmt.Printf("  claim: %s\n", r.ClaimText)
	fmt.Printf("  E1 (1954 table) retrieved=%v verdict=%v (expected Refuted)\n", r.E1Retrieved, r.E1Verdict)
	fmt.Printf("      explanation: %s\n", r.E1Explanation)
	fmt.Printf("  E2 (1959 table) retrieved=%v verdict=%v (expected Not Related)\n", r.E2Retrieved, r.E2Verdict)
	status := "OK"
	if !r.Final.Match() || !r.E1Retrieved {
		status = "MISMATCH"
	}
	fmt.Printf("  [%s] final verdict=%v (expected Refuted)\n\n", status, r.Final.Verdict)
	return nil
}

func runAblations(env *experiments.Env) error {
	r, err := env.Ablations()
	if err != nil {
		return err
	}
	fmt.Print(r.Format())
	return nil
}
