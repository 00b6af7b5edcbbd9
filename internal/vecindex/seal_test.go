package vecindex

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
)

// containerBytes is the container a segment's columns view.
func containerBytes(t testing.TB, z *Frozen) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := z.seg.r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deriveFrom derives an index over the IDs of z's segment, row i being
// rows[ID i]: what opening a directory does, with the vectors the rows
// were added with standing in for the postings they are derived from.
func deriveFrom(t *testing.T, z *Frozen, rows map[string]embed.Vector) *SQFlat {
	t.Helper()
	derived, err := Derive(z.seg.dim, z.seg.ids, func(i int, row embed.Vector) {
		copy(row, rows[string(z.seg.ids.AppendAt(nil, i))])
	})
	if err != nil {
		t.Fatal(err)
	}
	return derived
}

// sealAdoptDifferential drives an index that is frozen at intervals and
// one that never is through the same seeded adds, removes and re-adds, with
// a searcher running against the first throughout, and holds every search
// — head, pinned at each freeze, and of an index derived from each other
// freeze's rows — to the reference's hits: the codes score the same
// wherever they sit. A derived segment is the sealed one byte for byte.
// The collector runs after each freeze, so a row left pointing into a
// released container faults. With tied, every row is one of three vectors,
// so most scores tie exactly and the order of IDs, in the base and the
// tail, decides the hits.
func sealAdoptDifferential(t *testing.T, tied bool) {
	const dim = 16
	r := rand.New(rand.NewSource(7))
	randomVec := func() embed.Vector {
		v := make(embed.Vector, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		embed.Normalize(v)
		return v
	}
	vec := randomVec
	if tied {
		rows := []embed.Vector{randomVec(), randomVec(), randomVec()}
		vec = func() embed.Vector { return rows[r.Intn(len(rows))] }
	}
	queries := []embed.Vector{randomVec(), randomVec(), randomVec()}
	ref, ix := NewSQFlat(dim), NewSQFlat(dim)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ix.Search(queries[i%len(queries)], 10)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	type pin struct {
		ix   *SQFlat
		want [][]Hit
	}
	var pins []pin
	ties := 0
	rows := map[string]embed.Vector{} // the live rows, as added
	// The first seal: every row live and added out of ID order, so the
	// rows are reordered in place.
	for _, i := range r.Perm(40) {
		id, v := fmt.Sprintf("w%03d", i), vec()
		for _, s := range []*SQFlat{ref, ix} {
			if err := s.Add(id, v); err != nil {
				t.Fatal(err)
			}
		}
		rows[id] = v
	}
	ix.Freeze()
	for step := 0; step < 600; step++ {
		id := fmt.Sprintf("v%03d", r.Intn(90))
		switch {
		case rows[id] != nil && r.Intn(3) > 0:
			if a, b := ref.Remove(id), ix.Remove(id); a != b {
				t.Fatalf("step %d: Remove(%s) = %v vs %v", step, id, a, b)
			}
			delete(rows, id)
		case rows[id] == nil:
			v := vec()
			if a, b := ref.Add(id, v), ix.Add(id, v); (a == nil) != (b == nil) {
				t.Fatalf("step %d: Add(%s) = %v vs %v", step, id, a, b)
			}
			rows[id] = v
		}
		if step%60 == 59 {
			var want [][]Hit
			for _, q := range queries {
				want = append(want, ref.Search(q, 10))
			}
			z := ix.Freeze()
			if step%120 == 119 { // every other capture is derived as well
				derived := deriveFrom(t, z, rows)
				if !bytes.Equal(containerBytes(t, derived.segs[0].z), containerBytes(t, z)) {
					t.Fatalf("step %d: the derived segment is not the sealed one", step)
				}
				pins = append(pins, pin{ix: derived, want: want})
			}
			pins = append(pins, pin{ix: z.Thaw(), want: want})
			runtime.GC()
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, ix.Len(), ref.Len())
		}
		for qi, q := range queries {
			want := ref.Search(q, 10)
			ties += tiesByID(t, fmt.Sprintf("step %d query %d", step, qi), want)
			sameVecHits(t, fmt.Sprintf("step %d query %d", step, qi), ix.Search(q, 10), want)
		}
		for pi, p := range pins {
			for qi, q := range queries {
				sameVecHits(t, fmt.Sprintf("step %d pin %d query %d", step, pi, qi), p.ix.Search(q, 10), p.want[qi])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if tied && ties < 1000 {
		t.Errorf("only %d tied hits: the input does not exercise the tie order", ties)
	}
}

// tiesByID counts the hits that tie the score of the hit before them and
// fails unless each such pair is in ascending ID order.
func tiesByID(t *testing.T, label string, hits []Hit) int {
	t.Helper()
	n := 0
	for i := 1; i < len(hits); i++ {
		if hits[i].Score == hits[i-1].Score {
			n++
			if hits[i].ID <= hits[i-1].ID {
				t.Errorf("%s: tied hits %d and %d out of ID order: %v", label, i-1, i, hits)
			}
		}
	}
	return n
}

func TestSealAdoptDifferential(t *testing.T) {
	t.Run("sqflat", func(t *testing.T) { sealAdoptDifferential(t, false) })
	t.Run("sqflat-ties", func(t *testing.T) { sealAdoptDifferential(t, true) })
	for _, every := range []int{1, 7, 64} {
		for _, tied := range []bool{false, true} {
			t.Run(fmt.Sprintf("seal-every-%d-tied-%v", every, tied), func(t *testing.T) { sealEveryDifferential(t, every, tied) })
		}
	}
}

// sealEveryDifferential drives an index that seals after every k-th add
// or remove and one that never seals through the same seeded adds,
// removes and re-adds, with a searcher running against the first
// throughout, and holds every search — head, and of a fork taken every 50
// steps — to the reference's hits, scores to the bit. The list of segments
// must stay within the binary counter's bound.
func sealEveryDifferential(t *testing.T, k int, tied bool) {
	const dim = 16
	r := rand.New(rand.NewSource(int64(11 * k)))
	randomVec := func() embed.Vector {
		v := make(embed.Vector, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		embed.Normalize(v)
		return v
	}
	vec := randomVec
	if tied {
		rows := []embed.Vector{randomVec(), randomVec(), randomVec()}
		vec = func() embed.Vector { return rows[r.Intn(len(rows))] }
	}
	queries := []embed.Vector{randomVec(), randomVec(), randomVec()}
	ref, ix := NewSQFlat(dim), NewSQFlat(dim)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ix.Search(queries[i%len(queries)], 10)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	type pin struct {
		ix   *SQFlat
		want [][]Hit
	}
	var pins []pin
	live := map[string]bool{}
	writes := 0
	for step := 0; step < 700; step++ {
		id := fmt.Sprintf("v%03d", r.Intn(150))
		switch {
		case live[id] && r.Intn(3) == 0:
			if a, b := ref.Remove(id), ix.Remove(id); a != b {
				t.Fatalf("step %d: Remove(%s) = %v vs %v", step, id, a, b)
			}
			delete(live, id)
			writes++
		case !live[id]:
			v := vec()
			if a, b := ref.Add(id, v), ix.Add(id, v); (a == nil) != (b == nil) {
				t.Fatalf("step %d: Add(%s) = %v vs %v", step, id, a, b)
			}
			live[id] = true
			writes++
		}
		if writes%k == 0 {
			ix.Seal()
		}
		if step%50 == 49 {
			p := pin{ix: ix.Fork()}
			for _, q := range queries {
				p.want = append(p.want, ref.Search(q, 10))
			}
			pins = append(pins, p)
		}
		if n, bound := ix.Segments(), 2+bits.Len(uint(ix.Len()+ix.segRows)); n > bound {
			t.Fatalf("step %d: %d segments over %d rows", step, n, ix.segRows)
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, ix.Len(), ref.Len())
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("step %d query %d", step, qi), ix.Search(q, 10), ref.Search(q, 10))
		}
		for pi, p := range pins {
			for qi, q := range queries {
				sameVecHits(t, fmt.Sprintf("step %d fork %d query %d", step, pi, qi), p.ix.Search(q, 10), p.want[qi])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously: a container released while a row still
// views it is unmapped at once and the next read of that row faults.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t, false)
	sealAdoptDifferential(t, true)
}

// TestCaptureKeepsItsMappingAlive: a capture thawed before the live index
// seals twice more must itself keep its container alive — the live index
// lets go of it at the next seal.
func TestCaptureKeepsItsMappingAlive(t *testing.T) {
	const dim = 8
	vecs := randomVectors(30, dim, 9)
	s, _ := buildSQ(t, vecs, dim)
	s.Freeze()
	thawed := s.Freeze().Thaw() // nothing written since: the same segment
	want := thawed.Search(vecs[3], 5)
	s.Remove("v003")
	s.Freeze()
	s.Remove("v004")
	s.Freeze()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	sameVecHits(t, "thawed before the seals", thawed.Search(vecs[3], 5), want)
}
