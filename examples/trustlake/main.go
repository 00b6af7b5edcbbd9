// Trustlake demonstrates challenges C3 (trustworthiness of data sources)
// and C4 (provenance of the verification process): a lake with a corrupted
// mirror source produces conflicting evidence; knowledge-based trust learned
// from cross-source agreement downweights the corrupted source, and the
// provenance store answers "which verdicts did the bad source taint?".
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/trust"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		nTables = flag.Int("tables", 200, "clean lake tables")
		nTasks  = flag.Int("tasks", 12, "tuples to verify")
		seed    = flag.Uint64("seed", 7, "deterministic seed")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumTables = *nTables
	cfg.NumTexts = *nTables / 2
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A corrupted mirror source: copies of task tables with the masked
	// attribute shifted, so the mirror refutes true values.
	const noisy = "shady-mirror"
	corpus.Lake.AddSource(verifai.Source{ID: noisy, Name: "uncurated mirror", TrustPrior: 0.5})
	tasks, err := corpus.TupleTasks(*nTasks)
	if err != nil {
		log.Fatal(err)
	}
	mirrored := map[string]bool{}
	for _, task := range tasks {
		if mirrored[task.TableID] {
			continue
		}
		mirrored[task.TableID] = true
		orig, _ := corpus.Lake.Table(task.TableID)
		m := orig.Clone()
		m.ID = "mirror-" + orig.ID
		m.SourceID = noisy
		for row := range m.Rows {
			m.Rows[row][task.MaskedCol] = m.Rows[row][task.MaskedCol] + " (disputed)"
		}
		if err := corpus.Lake.AddTable(m); err != nil {
			log.Fatal(err)
		}
	}

	sys, err := verifai.NewSystem(corpus.Lake, verifai.ExactOptions(*seed))
	if err != nil {
		log.Fatal(err)
	}

	// Pass 1: verify true tuples; collect per-source verdict votes.
	var votes []trust.Vote
	for i, task := range tasks {
		rep, err := sys.VerifyImputedTuple(fmt.Sprintf("t%d", i), task.Tuple, task.MaskedAttr())
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range rep.Evidence {
			if ev.Result.Verdict == verifai.NotRelated {
				continue
			}
			votes = append(votes, trust.Vote{
				SourceID: ev.Instance.SourceID,
				ItemID:   fmt.Sprintf("t%d", i),
				Value:    ev.Result.Verdict.String(),
			})
		}
	}

	// Learn source trust from agreement, seeded with the lake priors.
	priors := map[string]float64{}
	for _, s := range corpus.Lake.Sources() {
		priors[s.ID] = s.TrustPrior
	}
	priors[workload.SourceTables] = 0.8 // curated collection
	learned := trust.Estimate(votes, priors)

	fmt.Println("learned source trust from cross-source agreement:")
	srcs := make([]string, 0, len(learned))
	for s := range learned {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Printf("  %-22s %.2f\n", s, learned[s])
		sys.SetSourceTrust(s, learned[s])
	}

	// Pass 2: with learned trust, the corrupted mirror no longer flips
	// verdicts.
	correct := 0
	for i, task := range tasks {
		rep, err := sys.VerifyImputedTuple(fmt.Sprintf("t%d-pass2", i), task.Tuple, task.MaskedAttr())
		if err != nil {
			log.Fatal(err)
		}
		if rep.Verdict == verifai.Verified {
			correct++
		}
	}
	fmt.Printf("\nwith learned trust, %d/%d true tuples resolve to Verified\n", correct, len(tasks))

	// Provenance: which verdicts did the mirror participate in?
	tainted := map[string]bool{}
	for _, tbl := range corpus.Lake.TableIDs() {
		if len(tbl) > 7 && tbl[:7] == "mirror-" {
			for row := 0; ; row++ {
				id := fmt.Sprintf("tuple:%s#%d", tbl, row)
				objs := sys.Provenance().TaintedBy(id)
				if len(objs) == 0 && row > 20 {
					break
				}
				for _, o := range objs {
					tainted[o] = true
				}
				if row > 20 {
					break
				}
			}
		}
	}
	fmt.Printf("provenance: %d verdicts used evidence from the corrupted mirror\n", len(tainted))
}
