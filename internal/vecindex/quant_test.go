package vecindex

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/embed"
)

// buildSQ indexes vecs into a fresh SQFlat.
func buildSQ(t *testing.T, vecs []embed.Vector, dim int, metric Metric, rerank int) *SQFlat {
	t.Helper()
	sq := NewSQFlat(dim, metric, rerank)
	for i, v := range vecs {
		if err := sq.Add(fmt.Sprintf("v%03d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	return sq
}

// TestSQFlatMatchesFlatWhenRerankCoversAll pins the exactness property:
// once rerank×k reaches the index size, every vector survives to the exact
// re-rank, so the output must be bit-identical to Flat for every metric.
func TestSQFlatMatchesFlatWhenRerankCoversAll(t *testing.T) {
	const dim, n, k = 16, 50, 5
	vecs := randomVectors(n, dim, 7)
	queries := randomVectors(8, dim, 8)
	for _, metric := range []Metric{Cosine, InnerProduct, L2} {
		flat := NewFlat(dim, metric)
		for i, v := range vecs {
			if err := flat.Add(fmt.Sprintf("v%03d", i), v); err != nil {
				t.Fatal(err)
			}
		}
		sq := buildSQ(t, vecs, dim, metric, n/k+1)
		for qi, q := range queries {
			a, b := flat.Search(q, k), sq.Search(q, k)
			if len(a) != len(b) {
				t.Fatalf("%v query %d: %d vs %d hits", metric, qi, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%v query %d hit %d: %+v vs %+v", metric, qi, i, a[i], b[i])
				}
			}
		}
	}
}

// TestSQFlatRecall measures recall@10 of the quantized scan with the
// default rerank multiple against the exact flat index — the acceptance
// floor the ablation reports on larger corpora.
func TestSQFlatRecall(t *testing.T) {
	const dim, n, k = 32, 500, 10
	vecs := randomVectors(n, dim, 11)
	flat := NewFlat(dim, Cosine)
	for i, v := range vecs {
		if err := flat.Add(fmt.Sprintf("v%03d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	sq := buildSQ(t, vecs, dim, Cosine, DefaultRerank)

	queries := randomVectors(20, dim, 12)
	var hit, total int
	for _, q := range queries {
		want := map[string]bool{}
		for _, h := range flat.Search(q, k) {
			want[h.ID] = true
		}
		for _, h := range sq.Search(q, k) {
			if want[h.ID] {
				hit++
			}
		}
		total += k
	}
	recall := float64(hit) / float64(total)
	t.Logf("quantized recall@%d = %.3f over %d queries", k, recall, len(queries))
	if recall < 0.95 {
		t.Errorf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
}

func TestSQFlatRequantizeOnRangeExtension(t *testing.T) {
	const dim = 8
	sq := NewSQFlat(dim, InnerProduct, 8)
	flat := NewFlat(dim, InnerProduct)
	// Each batch doubles the component scale, forcing range extensions.
	var id int
	for _, scale := range []float32{0.1, 1, 10} {
		for _, v := range randomVectors(20, dim, uint64(scale*100)) {
			scaled := make(embed.Vector, dim)
			for d := range v {
				scaled[d] = v[d] * scale
			}
			name := fmt.Sprintf("v%03d", id)
			id++
			if err := sq.Add(name, scaled); err != nil {
				t.Fatal(err)
			}
			if err := flat.Add(name, scaled); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sq.Requants() < 2 {
		t.Errorf("Requants = %d, want >= 2 after range extensions", sq.Requants())
	}
	// rerank×k covers the whole index, so results stay exact after every
	// requantization.
	for qi, q := range randomVectors(5, dim, 77) {
		a, b := flat.Search(q, 8), sq.Search(q, 8)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d hits", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("query %d hit %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

func TestSQFlatRemoveAndCompact(t *testing.T) {
	const dim = 8
	vecs := randomVectors(200, dim, 21)
	sq := buildSQ(t, vecs, dim, Cosine, 100)
	for i := 0; i < 150; i++ {
		if !sq.Remove(fmt.Sprintf("v%03d", i)) {
			t.Fatalf("Remove(v%03d) = false", i)
		}
	}
	if sq.Remove("v000") {
		t.Error("double Remove = true")
	}
	if sq.Len() != 50 {
		t.Errorf("Len after removals = %d", sq.Len())
	}
	// Compaction must have rebuilt the code columns consistently: results
	// still match an exact index over the survivors.
	flat := NewFlat(dim, Cosine)
	for i := 150; i < 200; i++ {
		if err := flat.Add(fmt.Sprintf("v%03d", i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range randomVectors(5, dim, 22) {
		a, b := flat.Search(q, 10), sq.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("hit counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("hit %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// Removed IDs can be re-added.
	if err := sq.Add("v000", vecs[0]); err != nil {
		t.Errorf("re-Add after Remove: %v", err)
	}
}

func TestSQFlatErrors(t *testing.T) {
	sq := NewSQFlat(4, Cosine, 0)
	if sq.rerank != DefaultRerank {
		t.Errorf("rerank default = %d", sq.rerank)
	}
	if err := sq.Add("a", embed.Vector{1, 2}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := sq.Add("a", embed.Vector{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := sq.Add("a", embed.Vector{0, 1, 0, 0}); err == nil {
		t.Error("duplicate id accepted")
	}
	if got := sq.Search(embed.Vector{1, 0, 0, 0}, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := sq.Search(embed.Vector{1, 0}, 3); got != nil {
		t.Errorf("wrong-dim query returned %v", got)
	}
}

func TestSQFlatSaveLoadRoundtrip(t *testing.T) {
	const dim = 16
	vecs := randomVectors(120, dim, 41)
	sq := buildSQ(t, vecs, dim, Cosine, 6)
	sq.Remove("v007") // tombstones must compact away in the capture

	var buf bytes.Buffer
	if err := sq.Freeze().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	loaded, err := LoadSQ(&buf)
	if err != nil {
		t.Fatalf("LoadSQ: %v", err)
	}
	if loaded.Len() != sq.Len() {
		t.Fatalf("Len drifted: %d vs %d", loaded.Len(), sq.Len())
	}
	queries := randomVectors(8, dim, 42)
	for qi, q := range queries {
		a, b := sq.Search(q, 10), loaded.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d hits", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("query %d hit %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}

	// The mmap-backed open must serve identically, and keep accepting
	// writes (views are copy-on-grow; requantization never mutates the
	// mapped columns in place).
	path := filepath.Join(t.TempDir(), "sq.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSQFile(path)
	if err != nil {
		t.Fatalf("OpenSQFile: %v", err)
	}
	for qi, q := range queries {
		a, b := sq.Search(q, 10), mapped.Search(q, 10)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("mapped query %d hit %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	if err := mapped.Add("extra", randomVectors(1, dim, 43)[0]); err != nil {
		t.Fatalf("Add after OpenSQFile: %v", err)
	}
	if !mapped.Remove("v003") {
		t.Error("Remove after OpenSQFile = false")
	}
	big := make(embed.Vector, dim)
	big[0] = 50 // force a requantization over the loaded views
	if err := mapped.Add("huge", big); err != nil {
		t.Fatal(err)
	}
	if mapped.Requants() == 0 {
		t.Error("expected a requantization after out-of-range Add")
	}
}

// TestSQFlatFreezeIsolation pins the copy-on-write contract: a capture
// taken before a requantizing Add must serialize the pre-mutation state.
func TestSQFlatFreezeIsolation(t *testing.T) {
	const dim = 8
	vecs := randomVectors(30, dim, 61)
	sq := buildSQ(t, vecs, dim, Cosine, 10)
	frozen := sq.Freeze()
	wantLen := sq.Len()
	want := sq.Search(vecs[0], 5)

	big := make(embed.Vector, dim)
	big[0] = 100
	if err := sq.Add("outlier", big); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := frozen.Save(&buf); err != nil {
		t.Fatalf("Save frozen: %v", err)
	}
	loaded, err := LoadSQ(&buf)
	if err != nil {
		t.Fatalf("LoadSQ: %v", err)
	}
	if loaded.Len() != wantLen {
		t.Errorf("frozen capture Len = %d, want %d", loaded.Len(), wantLen)
	}
	got := loaded.Search(vecs[0], 5)
	if len(got) != len(want) {
		t.Fatalf("hit counts differ: %v vs %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("hit %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestDotCodesMatchesReference(t *testing.T) {
	ref := func(a, b []int8) int32 {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		var s int32
		for i := 0; i < n; i++ {
			s += int32(a[i]) * int32(b[i])
		}
		return s
	}
	mk := func(n int, seed int) []int8 {
		out := make([]int8, n)
		x := uint32(seed)*2654435761 + 1
		for i := range out {
			x = x*1664525 + 1013904223
			out[i] = int8(x >> 24)
		}
		return out
	}
	for n := 0; n <= 67; n++ {
		a, b := mk(n, n), mk(n, n+1000)
		if got, want := dotCodes(a, b), ref(a, b); got != want {
			t.Fatalf("n=%d: dotCodes = %d, want %d", n, got, want)
		}
	}
	// Mismatched lengths clamp to the shorter row.
	a, b := mk(10, 1), mk(7, 2)
	if got, want := dotCodes(a, b), ref(a, b); got != want {
		t.Errorf("mismatched: %d vs %d", got, want)
	}
}
