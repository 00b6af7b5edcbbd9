package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A table reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactRepeat names the count-derived metrics: for one seed they must
// read the same on every run of a workload that does not write.
var exactRepeat = []string{"success_ratio", "verdict_accuracy", "disk_bytes_per_user_byte"}

// runAA runs every workload untraced as two interleaved sets (A, B, A, B,
// ...) of `runs` runs on the same binaries, run i of either set with seed
// i+1, and writes per workload and metric both medians, each set's
// quartiles and spread, how much worse B's median is than A's, and the
// bound. It is the acceptance rule of this benchmark applied to itself: the
// sets share code and inputs, so every difference is noise. A count-derived
// metric that differs inside a pair on a read-only workload is an error.
func runAA(exe string, runs, seconds int, w io.Writer) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Fprintf(w, "# A/A: two interleaved sets of %d runs per workload, same binaries, seeds 1 to %d in both sets, --seconds %d\n\n", runs, runs, seconds)
	fmt.Fprintf(w, "Spread is (q3 - q1) / median within a set, quartiles as Python's `statistics.quantiles(v, n=4)`.\n")
	fmt.Fprintf(w, "`B worse` is how much worse set B's median is than set A's, as a share of A's (negative: better).\n\n")
	var drifted []string
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			seed := uint64(i + 1)
			for s := range sets {
				line, err := runOnce(exe, sp.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: run reported correct=false (%d of %d failed)", sp.name, seed, line.Failed, line.Attempted)
				}
				for name, mv := range line.Metrics {
					sets[s][name] = append(sets[s][name], mv.Value)
				}
			}
			if sp.name != wlIngestLive {
				for _, name := range exactRepeat {
					if a, b := sets[0][name][i], sets[1][name][i]; a != b {
						drifted = append(drifted, fmt.Sprintf("%s seed %d: %s read %v, then %v", sp.name, seed, name, a, b))
					}
				}
			}
		}
		fmt.Fprintf(w, "## %s\n\n", sp.name)
		fmt.Fprintf(w, "| metric | unit | bound | A median | A q1 | A q3 | A spread | B median | B q1 | B q3 | B spread | B worse |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "| %s | %s | %.3f | %.4f | %.4f | %.4f | %.4f | %.4f | %.4f | %.4f | %.4f | %+.4f |\n",
				m.Name, m.Unit, m.Bound, ma, a1, a3, (a3-a1)/ma, mb, b1, b3, (b3-b1)/mb, worse)
		}
		fmt.Fprintln(w)
	}
	if len(drifted) > 0 {
		return fmt.Errorf("count-derived metrics did not repeat on a read-only workload:\n%s", strings.Join(drifted, "\n"))
	}
	return nil
}

// runOnce runs one untraced workload in a child process and parses the
// result line.
func runOnce(exe, workload string, seed uint64, seconds int) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A run that finds a failure exits 1 but still prints its result line.
	if err := cmd.Run(); err != nil && stdout.Len() == 0 {
		return line, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("parse result line: %w", err)
	}
	return line, nil
}
