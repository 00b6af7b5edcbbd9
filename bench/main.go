// Command bench is the VerifAI serving benchmark: it drives a child
// `verifai serve` built from the commit under test over loopback HTTP on one
// of four fixed-count workloads and prints the end-to-end metrics; with
// --trace 1 it also replays a prefix of the same inputs in-process through
// each layer's public functions and prints the per-layer metrics instead.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd names every end-to-end metric and its unit. BENCHMARK.json lists
// the same names; the tests check that they agree.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"success_ratio", "ratio"},
	{"verdict_accuracy", "ratio"},
	{"rss_mb", "MB"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "claims_cold | tuples_cold | serve_hot | ingest_live")
	seed := flag.Uint64("seed", 1, "seed of the lake and the request streams")
	seconds := flag.Int("seconds", 10, "window length at seed speed; scales the fixed operation count")
	trace := flag.Int("trace", 0, "1 = add the in-process traced replay and print the per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: run every workload as two interleaved sets of this many runs")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for the span file of a traced run")
	flag.Parse()

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	buildDir := filepath.Dir(exe)

	if *aa > 0 {
		if err := runAA(exe, *aa, *seconds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	sp, ok := specFor(*workloadName)
	if !ok {
		fatal(fmt.Errorf("--workload must be one of claims_cold, tuples_cold, serve_hot, ingest_live"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}

	// Everything a run writes lives beside the binaries, inside the checkout.
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	// An interrupt kills the child server (through ctx) and fails the run,
	// which then cleans up after itself; the traced replay has no child and
	// no reason to notice, so a backstop removes the work directory and exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		time.Sleep(5 * time.Second)
		os.RemoveAll(workDir)
		os.Exit(130)
	}()
	code := run(ctx, sp, *seed, *seconds, *trace == 1, filepath.Join(buildDir, "verifai"), workDir, *out)
	stop()
	if err := os.RemoveAll(workDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes one workload and prints its metrics; the return value is the
// process exit code. Every run drives the child server through the full
// window; a traced run then replays a prefix of the same inputs in-process.
func run(ctx context.Context, sp spec, seed uint64, seconds int, traced bool, bin, workDir, outDir string) int {
	warm, n := sp.sizes(seconds)
	in, err := generate(sp, seed, warm, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: generate inputs:", err)
		return 2
	}
	defer in.corpus.Lake.Close()

	res, err := runE2E(ctx, sp, in, bin, filepath.Join(workDir, "served"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	line := resultLine{Attempted: res.tally.attempted, Failed: res.tally.failed, Metrics: make(map[string]metricValue)}
	violations := res.violations
	info := map[string]string{
		"samples":               fmt.Sprintf("%d timed operations in a %.2f s window (the percentiles are over these)", len(res.tally.latMS), res.metrics["window_s"]),
		"fail_ratio":            fmt.Sprintf("%d failed of %d attempted (by status: %v)", res.tally.failed, res.tally.attempted, res.tally.byStatus),
		"resultcache_hit_ratio": fmt.Sprintf("%.4f", res.metrics["resultcache_hit_ratio"]),
		"phases":                strings.Join(res.phases, ", "),
	}
	if traced {
		tr, err := runTraced(sp, in.prefix(sp.traceSizes(seconds)), filepath.Join(workDir, "traced"), filepath.Join(outDir, "trace-"+sp.name+".json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		line.Attempted += tr.attempted
		line.Failed += tr.failed
		violations = append(violations, tr.violations...)
		for _, m := range perLayer {
			v, ok := tr.metrics[m.name]
			if !ok {
				v = res.metrics[m.name] // the client's and the child server's own
			}
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
		info["client.op_p99_ms"] = fmt.Sprintf("%.4f ms", res.metrics["client.op_p99_ms"])
		printMetrics(sp, seed, "per-layer (client and child server over the full window; inner layers traced in-process on a prefix)", line.Metrics, info)
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = metricValue{res.metrics[m.name], m.unit}
		}
		info["client timings"] = fmt.Sprintf("%.4f ops/s, p50 %.4f ms, p95 %.4f ms, p99 %.4f ms (not gated; --trace 1 reports them)",
			res.metrics["client.ops_per_s"], res.metrics["client.op_p50_ms"], res.metrics["client.op_p95_ms"], res.metrics["client.op_p99_ms"])
		printMetrics(sp, seed, "end-to-end (child verifai serve, 2 closed-loop clients)", line.Metrics, info)
	}
	for _, v := range violations {
		fmt.Println("INVARIANT VIOLATED:", v)
	}
	line.Correct = line.Failed == 0 && len(violations) == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit, then the
// informational lines.
func printMetrics(sp spec, seed uint64, title string, metrics map[string]metricValue, info map[string]string) {
	fmt.Printf("workload %s, seed %d: %s\n", sp.name, seed, title)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %s\n", k, info[k])
	}
}
