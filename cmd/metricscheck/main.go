// Command metricscheck gates the /metrics surface in CI: it scrapes a
// Prometheus text exposition (from a live server or a file), lints it for
// malformed samples, duplicate series, and broken histogram invariants,
// and fails unless every required metric family is present.
//
// Usage:
//
//	metricscheck -url http://localhost:8080/metrics [-durable] [-follower]
//	metricscheck -file scrape.txt [-require name1,name2,...]
//
// The built-in required set covers every family a serving deployment
// must expose (HTTP, ingest, pipeline, caches, CDC); -durable adds the
// WAL/checkpoint/recovery families, and the memory ledger's catalog
// series, and -follower the replication ones. -require replaces the
// built-in set entirely. An entry is a family name, or one series of a
// family written as it is exposed: name{label="value"}.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// requiredServing is every metric family any serving deployment exposes,
// durable or not. Keep in sync with the README's observability catalog.
var requiredServing = []string{
	"verifai_http_requests_total",
	"verifai_http_request_duration_seconds",
	"verifai_verify_rejected_total",
	"verifai_verify_in_flight",
	"verifai_cdc_stream_records_total",
	"verifai_cdc_streams_active",
	"verifai_ingest_prepare_seconds",
	"verifai_ingest_commit_seconds",
	"verifai_ingest_apply_seconds",
	"verifai_stage_duration_seconds",
	"verifai_shard_search_seconds",
	"verifai_index_segment_bytes",
	"verifai_index_delta_docs",
	"verifai_index_segments",
	"verifai_tail_seal_seconds",
	"verifai_catalog_merges_total",
	"verifai_index_derive_seconds",
	"verifai_verifier_calls_total",
	"verifai_verifier_call_seconds",
	"verifai_result_cache_hits_total",
	"verifai_result_cache_misses_total",
	"verifai_result_cache_invalidations_total",
	"verifai_result_cache_entries",
	"verifai_provenance_records",
	"verifai_provenance_bytes",
	"verifai_provenance_segments",
	"verifai_cpu_seconds_total",
}

// requiredDurable is added for -data-dir deployments (WAL + checkpoints).
var requiredDurable = []string{
	"verifai_wal_append_seconds",
	"verifai_wal_fsync_seconds",
	"verifai_wal_appended_records_total",
	"verifai_wal_appended_bytes_total",
	"verifai_wal_rotations_total",
	"verifai_wal_segments",
	"verifai_wal_bytes",
	"verifai_checkpoint_fork_seconds",
	"verifai_checkpoint_write_seconds",
	"verifai_checkpoints_total",
	"verifai_checkpoint_version",
	"verifai_checkpoint_bytes",
	"verifai_checkpoint_part_bytes",
	"verifai_recovery_replayed_records_total",
	"verifai_snapshot_rebuild_seconds",
	"verifai_wal_poisoned",
	"verifai_memory_bytes",
	`verifai_memory_bytes{class="offheap_catalog"}`,
	`verifai_memory_bytes{class="tail"}`,
	`verifai_memory_bytes{class="token_table"}`,
}

// requiredFollower is added for follower (replica) deployments.
var requiredFollower = []string{
	"verifai_replication_lag_records",
	"verifai_replication_lag_seconds",
	"verifai_replication_applied_records_total",
}

func main() {
	url := flag.String("url", "", "metrics endpoint to scrape, e.g. http://localhost:8080/metrics")
	file := flag.String("file", "", "read the exposition from a file instead of scraping (\"-\" = stdin)")
	durable := flag.Bool("durable", false, "also require the WAL/checkpoint/recovery families")
	follower := flag.Bool("follower", false, "also require the replication families")
	require := flag.String("require", "", "comma-separated required families, replacing the built-in set")
	timeout := flag.Duration("timeout", 10*time.Second, "scrape timeout")
	flag.Parse()

	body, err := fetch(*url, *file, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
		os.Exit(1)
	}

	failed := false
	for _, lerr := range obs.Lint(strings.NewReader(body)) {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", lerr)
		failed = true
	}

	want := requiredSet(*require, *durable, *follower)
	present := presentFamilies(body)
	var missing []string
	for _, name := range want {
		if !present[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "metricscheck: required metric missing: %s\n", name)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("metricscheck: ok (%d families present, %d required)\n", len(present), len(want))
}

func fetch(url, file string, timeout time.Duration) (string, error) {
	switch {
	case url != "" && file != "":
		return "", fmt.Errorf("-url and -file are mutually exclusive")
	case url != "":
		client := &http.Client{Timeout: timeout}
		resp, err := client.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		return string(data), err
	case file == "-":
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	case file != "":
		data, err := os.ReadFile(file)
		return string(data), err
	default:
		return "", fmt.Errorf("one of -url or -file is required")
	}
}

func requiredSet(override string, durable, follower bool) []string {
	if override != "" {
		var names []string
		for _, n := range strings.Split(override, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	names := append([]string(nil), requiredServing...)
	if durable {
		names = append(names, requiredDurable...)
	}
	if follower {
		names = append(names, requiredFollower...)
	}
	return names
}

// presentFamilies collects family names from TYPE headers and samples
// (histogram sample suffixes stripped back to the family name), and the
// series of every sample with labels, as name{labels}, so that one series
// of a family can be required.
func presentFamilies(body string) map[string]bool {
	present := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				present[fields[2]] = true
			}
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if series, _, ok := strings.Cut(line, "} "); ok && strings.Contains(series, "{") {
			present[series+"}"] = true
		}
		present[name] = true
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				present[strings.TrimSuffix(name, suffix)] = true
			}
		}
	}
	return present
}
