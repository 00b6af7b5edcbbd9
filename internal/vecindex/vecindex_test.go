package vecindex

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/detrand"
	"repro/internal/embed"
)

// searcher is what the recall and allocation checks ask of an index.
type searcher interface {
	Search(q embed.Vector, k int) []Hit
}

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
