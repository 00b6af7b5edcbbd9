package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCPUClasses: /v1/stats has a "cpu" block with every class of
// cpuClasses, none negative, none above the total, and /metrics a
// verifai_cpu_seconds_total series for each that lints as a counter.
// The runtime brings the classes up to date when a collection ends, so
// the test runs one first.
func TestCPUClasses(t *testing.T) {
	ts := newTestServer(t)
	runtime.GC()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		CPU map[string]float64 `json:"cpu"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	total := stats.CPU["total"]
	if total <= 0 {
		t.Fatalf("cpu = %v: no total", stats.CPU)
	}
	exposition := scrape(t, ts)
	for _, c := range cpuClasses {
		if v, ok := stats.CPU[c.class]; !ok || v < 0 || v > total {
			t.Errorf("cpu[%q] = %v (present %v), total %v", c.class, v, ok, total)
		}
		if !strings.Contains(exposition, `verifai_cpu_seconds_total{class="`+c.class+`"} `) {
			t.Errorf("/metrics lacks verifai_cpu_seconds_total{class=%q}", c.class)
		}
	}
	if !strings.Contains(exposition, "# TYPE verifai_cpu_seconds_total counter") {
		t.Error("verifai_cpu_seconds_total is not exposed as a counter")
	}
	for _, err := range obs.Lint(strings.NewReader(exposition)) {
		t.Error(err)
	}
}
