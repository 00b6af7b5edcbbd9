package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/claims"
	"repro/internal/detrand"
	"repro/internal/table"
)

// stream flattens a run's inputs into the bytes the program would receive.
func stream(in *inputs) []byte {
	var b bytes.Buffer
	for _, rs := range [][]*request{in.warm, in.window} {
		for _, r := range rs {
			b.WriteString(r.Path)
			b.Write(r.Body)
			b.WriteString(r.Want)
		}
	}
	for _, ws := range [][]*ingest{in.warmW, in.winW} {
		for _, w := range ws {
			b.Write(w.Body)
			b.Write(w.Verify.Body)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, sp := range specs {
		gen := func(seed uint64) []byte {
			warm, n := 8, 40
			if sp.name == wlServeHot {
				warm = hotPool
			}
			in, err := generate(sp, seed, warm, n)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			defer in.corpus.Lake.Close()
			if got := len(in.window) + len(in.winW); got != n {
				t.Fatalf("%s: window holds %d operations, want %d", sp.name, got, n)
			}
			return stream(in)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", sp.name)
		}
	}
}

// The count-derived metrics repeat across seeds only because every seed
// sends the same objects, each with the same ID, in another order.
func TestSeedsReorderOneSetOfObjects(t *testing.T) {
	for _, name := range []string{wlClaimsCold, wlTuplesCold, wlIngestLive} {
		sp, _ := specFor(name)
		window := func(seed uint64) []string {
			in, err := generate(sp, seed, 10, 60)
			if err != nil {
				t.Fatal(err)
			}
			defer in.corpus.Lake.Close()
			var bodies []string
			for _, r := range in.window {
				bodies = append(bodies, string(r.Body))
			}
			for _, w := range in.winW {
				bodies = append(bodies, string(w.Body)+string(w.Verify.Body))
			}
			return bodies
		}
		a, b := window(1), window(2)
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 send the window in the same order", name)
		}
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 send different objects in the window", name)
		}
	}
}

func TestNoDuplicateIDsInAWindow(t *testing.T) {
	for _, name := range []string{wlClaimsCold, wlTuplesCold, wlIngestLive} {
		sp, _ := specFor(name)
		in, err := generate(sp, 3, 10, 120)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, r := range append(in.warm, in.window...) {
			if seen[r.ID] {
				t.Errorf("%s: object ID %s appears twice", name, r.ID)
			}
			seen[r.ID] = true
		}
		for _, w := range append(in.warmW, in.winW...) {
			if seen[w.Table.ID] || seen[w.Verify.ID] {
				t.Errorf("%s: ID %s or %s appears twice", name, w.Table.ID, w.Verify.ID)
			}
			seen[w.Table.ID], seen[w.Verify.ID] = true, true
		}
		in.corpus.Lake.Close()
	}
}

func TestLiveClaimIsSupportedOnlyByItsTable(t *testing.T) {
	ws, err := liveIngests(30)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		c, err := claims.Parse(w.Verify.Obj.Claim.Text)
		if err != nil {
			t.Fatal(err)
		}
		for j, other := range ws {
			out, _ := claims.Eval(c, other.Table)
			if i == j && out != claims.Supports {
				t.Errorf("table %s does not support its own claim %q", w.Table.ID, c.Text)
			}
			if i != j && out != claims.Unrelated {
				t.Errorf("table %s is %v for the claim of %s", other.Table.ID, out, w.Table.ID)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	// 200 samples: the 95th percentile is the 190th smallest, leaving 10 beyond it.
	w := make([]float64, 200)
	for i := range w {
		w[i] = float64(i + 1)
	}
	if got := percentile(w, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestZipf(t *testing.T) {
	const n, draws = 4, 200000
	z := newZipf(n, 1)
	// Weights 1, 1/2, 1/3, 1/4 over their sum 25/12.
	want := []float64{12.0 / 25, 6.0 / 25, 4.0 / 25, 3.0 / 25}
	got := make([]float64, n)
	r := detrand.New(1, "zipf-test")
	for i := 0; i < draws; i++ {
		got[z.draw(r)]++
	}
	for i := range got {
		if share := got[i] / draws; math.Abs(share-want[i]) > 0.005 {
			t.Errorf("rank %d drawn with share %.4f, want %.4f", i, share, want[i])
		}
	}
}

func TestTableUserBytes(t *testing.T) {
	tb := table.New("t", "cap", []string{"ab", "c"}) // 3 + 2 + 1
	tb.MustAppendRow("xy", "")                       // 2 + 0
	tb.MustAppendRow("z", "0123")                    // 1 + 4
	if got := tableUserBytes(tb); got != 13 {
		t.Errorf("user bytes = %d, want 13", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 30},    // child
		{ID: 2, Parent: 1, Start: 15, End: 20},    // nested grandchild: not subtracted from the root
		{ID: 3, Parent: 0, Start: 25, End: 50},    // overlaps child 1 by 5
		{ID: 4, Parent: 0, Start: 60, End: 80},    // parallel pair ...
		{ID: 5, Parent: 0, Start: 60, End: 80},    // ... covering the same interval
		{ID: 6, Parent: 0, Start: 90, End: 120},   // runs past its parent: clipped to 90..100
		{ID: 7, Parent: 99, Start: 0, End: 10},    // parent not recorded
		{ID: 8, Parent: -1, Start: 200, End: 200}, // empty root
	}
	want := []int64{
		100 - (40 + 20 + 10), // children cover 10..50, 60..80, 90..100
		20 - 5,
		5,
		25,
		20,
		20,
		30,
		10,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestMetricNamesMatchBenchmarkFile keeps BENCHMARK.json and the metric
// tables in the code from drifting apart.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []entry, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bf.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, bf.Workloads[i].Name, sp.name)
		}
	}
}
