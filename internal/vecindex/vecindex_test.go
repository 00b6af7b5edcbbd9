package vecindex

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/detrand"
	"repro/internal/embed"
)

// randomVectors returns n deterministic unit vectors of dimension dim.
func randomVectors(n, dim int, seed uint64) []embed.Vector {
	r := detrand.New(seed, "vectors")
	out := make([]embed.Vector, n)
	for i := range out {
		v := make(embed.Vector, dim)
		for d := range v {
			v[d] = float32(r.NormFloat64())
		}
		embed.Normalize(v)
		out[i] = v
	}
	return out
}

func TestFlatExactSearch(t *testing.T) {
	vecs := randomVectors(200, 16, 1)
	ix := NewFlat(16)
	for i, v := range vecs {
		if err := ix.Add(fmt.Sprintf("v%03d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 200 {
		t.Fatalf("Len = %d", ix.Len())
	}
	q := vecs[42]
	hits := ix.Search(q, 5)
	if len(hits) != 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].ID != "v042" {
		t.Errorf("nearest to itself = %s", hits[0].ID)
	}
	if math.Abs(hits[0].Score-1) > 1e-5 {
		t.Errorf("self-cosine = %v", hits[0].Score)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted")
		}
	}
}

func TestFlatErrors(t *testing.T) {
	ix := NewFlat(4)
	if err := ix.Add("a", embed.Vector{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := ix.Add("a", embed.Vector{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("a", embed.Vector{1, 2, 3, 4}); err == nil {
		t.Error("duplicate accepted")
	}
	if got := ix.Search(embed.Vector{1, 0, 0, 0}, 0); got != nil {
		t.Error("k=0 returned hits")
	}
}

func TestFlatAddCopiesVector(t *testing.T) {
	ix := NewFlat(2)
	v := embed.Vector{1, 0}
	if err := ix.Add("a", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 0
	v[1] = 1
	hits := ix.Search(embed.Vector{1, 0}, 1)
	if math.Abs(hits[0].Score-1) > 1e-6 {
		t.Error("index shares caller's vector storage")
	}
}

// seqIDs returns the IDs v000, v001, ... for n rows.
func seqIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
	}
	return ids
}

// buildFlat indexes vecs under ids in the exact reference index.
func buildFlat(t *testing.T, ids []string, vecs []embed.Vector) *Flat {
	t.Helper()
	flat := NewFlat(len(vecs[0]))
	for i, v := range vecs {
		if err := flat.Add(ids[i], v); err != nil {
			t.Fatal(err)
		}
	}
	return flat
}

func TestIVFMatchesFlatRecall(t *testing.T) {
	const n, dim, k = 500, 16, 10
	vecs := randomVectors(n, dim, 2)
	ids := seqIDs(n)
	flat := buildFlat(t, ids, vecs)
	ivf := NewIVF(ids, vecs, 16, 6, 3)
	if ivf.Len() != n {
		t.Fatalf("Len = %d", ivf.Len())
	}
	queries := randomVectors(30, dim, 99)
	var overlap, total int
	for _, q := range queries {
		exact := flat.Search(q, k)
		approx := ivf.Search(q, k)
		got := make(map[string]bool, len(approx))
		for _, h := range approx {
			got[h.ID] = true
		}
		for _, h := range exact {
			total++
			if got[h.ID] {
				overlap++
			}
		}
	}
	recall := float64(overlap) / float64(total)
	if recall < 0.6 {
		t.Errorf("IVF recall vs flat = %v, want >= 0.6", recall)
	}
}

// TestIVFFullProbeIsExact: probing every cell scores every row as Flat
// does, so the top-k is Flat's to the bit, IDs and scores.
func TestIVFFullProbeIsExact(t *testing.T) {
	const n, dim, k, nlist = 300, 16, 10, 8
	vecs := randomVectors(n, dim, 4)
	ids := seqIDs(n)
	flat := buildFlat(t, ids, vecs)
	ivf := NewIVF(ids, vecs, nlist, nlist, 1)
	for qi, q := range randomVectors(50, dim, 5) {
		sameVecHits(t, fmt.Sprintf("query %d", qi), ivf.Search(q, k), flat.Search(q, k))
	}
	if got := ivf.Search(vecs[0], 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestIVFParamPanics(t *testing.T) {
	vecs := randomVectors(4, 8, 1)
	short := append(append([]embed.Vector(nil), vecs[:3]...), vecs[3][:7])
	for name, build := range map[string]func(){
		"nlist 0":           func() { NewIVF(seqIDs(4), vecs, 0, 1, 1) },
		"nprobe 0":          func() { NewIVF(seqIDs(4), vecs, 2, 0, 1) },
		"ids for 3 rows":    func() { NewIVF(seqIDs(3), vecs, 2, 1, 1) },
		"a vector of dim 7": func() { NewIVF(seqIDs(4), short, 2, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIVF with %s did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestLSHReturnsTrueNeighbors(t *testing.T) {
	const n, dim = 300, 32
	vecs := randomVectors(n, dim, 5)
	lsh := NewLSH(seqIDs(n), vecs, 10, 8, 6)
	if lsh.Len() != n {
		t.Fatalf("Len = %d", lsh.Len())
	}
	// Identical query must find itself (same signature in every table).
	found := 0
	for i := 0; i < 50; i++ {
		hits := lsh.Search(vecs[i], 3)
		for _, h := range hits {
			if h.ID == fmt.Sprintf("v%03d", i) {
				found++
				break
			}
		}
	}
	if found < 50 {
		t.Errorf("LSH self-recall = %d/50", found)
	}
}

func TestLSHNearbyQueries(t *testing.T) {
	const dim = 32
	vecs := randomVectors(100, dim, 7)
	lsh := NewLSH(seqIDs(100), vecs, 8, 12, 8)
	// A small perturbation of an indexed vector should usually still find
	// the original.
	r := detrand.New(11, "perturb")
	found := 0
	for i := 0; i < 40; i++ {
		q := embed.Clone(vecs[i])
		for d := range q {
			q[d] += float32(0.05 * r.NormFloat64())
		}
		embed.Normalize(q)
		for _, h := range lsh.Search(q, 5) {
			if h.ID == fmt.Sprintf("v%03d", i) {
				found++
				break
			}
		}
	}
	if found < 30 {
		t.Errorf("LSH perturbed recall = %d/40", found)
	}
	if empty := NewLSH(nil, nil, 8, 2, 1); empty.Search(vecs[0], 5) != nil {
		t.Error("an empty LSH index returned hits")
	}
}

func TestLSHParamPanics(t *testing.T) {
	vecs := randomVectors(4, 8, 1)
	for _, params := range [][3]int{{4, 0, 2}, {4, 65, 2}, {4, 8, 0}, {3, 8, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLSH(%v) did not panic", params)
				}
			}()
			NewLSH(seqIDs(params[0]), vecs, params[1], params[2], 1)
		}()
	}
}

// TestBuildOnceConcurrentSearch: IVF and LSH hold no lock, so concurrent
// searches must only read; under -race this proves it, and every search
// answers as a lone one does.
func TestBuildOnceConcurrentSearch(t *testing.T) {
	const n, dim = 400, 16
	vecs := randomVectors(n, dim, 31)
	queries := randomVectors(8, dim, 32)
	for name, ix := range map[string]Searcher{
		"ivf": NewIVF(seqIDs(n), vecs, 8, 3, 1),
		"lsh": NewLSH(seqIDs(n), vecs, 8, 4, 1),
	} {
		want := make([][]Hit, len(queries))
		for qi, q := range queries {
			want[qi] = ix.Search(q, 10)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi, q := range queries {
					if got := ix.Search(q, 10); !slices.Equal(got, want[qi]) {
						t.Errorf("%s query %d: %v, alone %v", name, qi, got, want[qi])
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestKMeansAssignments(t *testing.T) {
	// Two well-separated clusters must be recovered.
	r := detrand.New(13, "clusters")
	var vecs []embed.Vector
	for i := 0; i < 50; i++ {
		vecs = append(vecs, embed.Vector{float32(1 + 0.01*r.NormFloat64()), float32(0.01 * r.NormFloat64())})
	}
	for i := 0; i < 50; i++ {
		vecs = append(vecs, embed.Vector{float32(-1 + 0.01*r.NormFloat64()), float32(0.01 * r.NormFloat64())})
	}
	centroids, assign := kmeans(vecs, 2, 1, 25)
	if len(centroids) != 2 || len(assign) != 100 {
		t.Fatalf("kmeans shapes: %d centroids, %d assigns", len(centroids), len(assign))
	}
	// All of the first 50 share a cluster; all of the last 50 share the other.
	c0 := assign[0]
	for i := 1; i < 50; i++ {
		if assign[i] != c0 {
			t.Fatalf("cluster 0 split at %d", i)
		}
	}
	c1 := assign[50]
	if c1 == c0 {
		t.Fatal("clusters merged")
	}
	for i := 51; i < 100; i++ {
		if assign[i] != c1 {
			t.Fatalf("cluster 1 split at %d", i)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if c, a := kmeans(nil, 3, 1, 5); c != nil || a != nil {
		t.Error("kmeans(nil) returned data")
	}
	vecs := randomVectors(3, 4, 1)
	c, a := kmeans(vecs, 10, 1, 5) // k > n clamps
	if len(c) != 3 || len(a) != 3 {
		t.Errorf("kmeans clamp: %d centroids", len(c))
	}
}
