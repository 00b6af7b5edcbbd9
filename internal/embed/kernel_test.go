package embed

import (
	"math"
	"testing"

	"repro/internal/detrand"
)

// Scalar reference implementations the unrolled kernels must agree with
// (up to float64 reassociation, hence the relative tolerance).
func refDot(a, b Vector) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func refNorm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestKernelsMatchScalarReference sweeps every residual-loop length (the
// unroll handles n%4 tails separately) plus larger sizes, with values
// spanning signs and magnitudes.
func TestKernelsMatchScalarReference(t *testing.T) {
	r := detrand.New(5, "kernels")
	for n := 0; n <= 67; n++ {
		a := make(Vector, n)
		b := make(Vector, n)
		for i := 0; i < n; i++ {
			a[i] = float32(r.NormFloat64() * math.Pow(10, float64(i%7-3)))
			b[i] = float32(r.NormFloat64() * math.Pow(10, float64(i%5-2)))
		}
		if got, want := Dot(a, b), refDot(a, b); !relClose(got, want) {
			t.Errorf("n=%d: Dot = %v, want %v", n, got, want)
		}
		if got, want := Norm(a), refNorm(a); !relClose(got, want) {
			t.Errorf("n=%d: Norm = %v, want %v", n, got, want)
		}
		wantCos := 0.0
		if na, nb := refNorm(a), refNorm(b); na != 0 && nb != 0 {
			wantCos = refDot(a, b) / (na * nb)
		}
		if got := Cosine(a, b); !relClose(got, wantCos) {
			t.Errorf("n=%d: Cosine = %v, want %v", n, got, wantCos)
		}
	}
}

func TestKernelEdgeValues(t *testing.T) {
	zero := make(Vector, 8)
	one := Vector{1, 0, 0, 0, 0, 0, 0, 0}
	if got := Cosine(zero, one); got != 0 {
		t.Errorf("Cosine(zero, e1) = %v", got)
	}
	if got := Dot(zero, one); got != 0 {
		t.Errorf("Dot(zero, e1) = %v", got)
	}
	if got := Norm(one); got != 1 {
		t.Errorf("Norm(e1) = %v", got)
	}
}

func BenchmarkKernels(b *testing.B) {
	r := detrand.New(9, "bench")
	const dim = 128
	x := make(Vector, dim)
	y := make(Vector, dim)
	for i := range x {
		x[i] = float32(r.NormFloat64())
		y[i] = float32(r.NormFloat64())
	}
	b.Run("Dot", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += Dot(x, y)
		}
		_ = s
	})
	b.Run("Cosine", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += Cosine(x, y)
		}
		_ = s
	})
}
