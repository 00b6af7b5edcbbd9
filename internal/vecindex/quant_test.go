package vecindex

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// buildSQ indexes vecs into a fresh SQFlat and, beside it, the float
// reference.
func buildSQ(t testing.TB, vecs []embed.Vector, dim int) (*SQFlat, *Flat) {
	t.Helper()
	sq, flat := NewSQFlat(dim), NewFlat(dim)
	for i, v := range vecs {
		id := fmt.Sprintf("v%03d", i)
		if err := sq.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := flat.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	return sq, flat
}

// recallAt is the share of ref's top-k IDs that got's top-k holds, over
// queries.
func recallAt(k int, got, ref Searcher, queries []embed.Vector) float64 {
	var hit, total int
	for _, q := range queries {
		want := map[string]bool{}
		for _, h := range ref.Search(q, k) {
			want[h.ID] = true
		}
		for _, h := range got.Search(q, k) {
			if want[h.ID] {
				hit++
			}
		}
		total += len(want)
	}
	return float64(hit) / float64(total)
}

// TestSQFlatTracksFlat: the int8 scan, with no re-rank pass, returns the
// float scan's neighbours, with scores within quantization error of them.
func TestSQFlatTracksFlat(t *testing.T) {
	const dim, n, k = 32, 500, 10
	sq, flat := buildSQ(t, randomVectors(n, dim, 11), dim)
	queries := randomVectors(20, dim, 12)
	if recall := recallAt(k, sq, flat, queries); recall < 0.95 {
		t.Errorf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
	for qi, q := range queries {
		exact := map[string]float64{}
		for _, h := range flat.Search(q, n) {
			exact[h.ID] = h.Score
		}
		hits := sq.Search(q, k)
		for i, h := range hits {
			if d := math.Abs(h.Score - exact[h.ID]); d > 0.01 {
				t.Errorf("query %d: %s scores %v, exact %v", qi, h.ID, h.Score, exact[h.ID])
			}
			if i > 0 && (h.Score > hits[i-1].Score || h.Score == hits[i-1].Score && h.ID < hits[i-1].ID) {
				t.Errorf("query %d: hit %d out of order: %+v after %+v", qi, i, h, hits[i-1])
			}
		}
	}
}

// TestSQFlatEdgeRows: a zero vector, a one-row shard and a row whose
// largest component is negative index, rank deterministically and come
// back from a file as they went in.
func TestSQFlatEdgeRows(t *testing.T) {
	const dim = 4
	one := NewSQFlat(dim)
	if err := one.Add("only", embed.Vector{0.5, -0.5, 0.5, -0.5}); err != nil {
		t.Fatal(err)
	}
	if hits := one.Search(embed.Vector{1, -1, 1, -1}, 3); len(hits) != 1 || hits[0].ID != "only" || math.Abs(hits[0].Score-1) > 1e-6 {
		t.Errorf("one-row shard: %+v", hits)
	}

	s := NewSQFlat(dim)
	rows := map[string]embed.Vector{
		"zero-b": {0, 0, 0, 0},
		"zero-a": {0, 0, 0, 0},
		"neg":    {0.1, -0.9, 0.2, 0.1},   // largest component negative: code -127
		"pos":    {-0.1, 0.9, -0.2, -0.1}, // its mirror image
	}
	for id, v := range rows {
		if err := s.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.codes[s.byID["neg"]*dim+1]; c != -127 {
		t.Errorf("largest-magnitude component coded %d, want -127", c)
	}
	q := embed.Vector{0, -1, 0, 0}
	want := []string{"neg", "zero-a", "zero-b", "pos"} // zero rows tie at 0, by ID
	check := func(label string, ix Searcher) {
		t.Helper()
		hits := ix.Search(q, 4)
		if len(hits) != len(want) {
			t.Fatalf("%s: %+v", label, hits)
		}
		for i, h := range hits {
			if h.ID != want[i] {
				t.Errorf("%s: hit %d = %s, want %s (%+v)", label, i, h.ID, want[i], hits)
			}
		}
		if hits[0].Score <= 0.9 || hits[1].Score != 0 || hits[2].Score != 0 || hits[3].Score != -hits[0].Score {
			t.Errorf("%s: scores %+v", label, hits)
		}
	}
	check("tail", s)
	path, _ := writeSnapshotFile(t, s.Freeze().Save)
	check("sealed", s)
	reopened, err := OpenSQFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", reopened)
	sameVecHits(t, "reopened vs sealed", reopened.Search(q, 4), s.Search(q, 4))
	// A zero query scores every row 0: pure ID order.
	if hits := s.Search(embed.Vector{0, 0, 0, 0}, 2); len(hits) != 2 || hits[0].ID != "neg" || hits[1].ID != "pos" {
		t.Errorf("zero query: %+v", hits)
	}
}

// TestSQFlatRemoveAndReadd walks an ID through both tiers: removed from
// the tail, re-added, sealed, removed from the base, re-added into the
// tail, sealed again.
func TestSQFlatRemoveAndReadd(t *testing.T) {
	const dim = 8
	vecs := randomVectors(4, dim, 5)
	s := NewSQFlat(dim)
	add := func(id string, v embed.Vector) {
		t.Helper()
		if err := s.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	top := func(q embed.Vector) string { return s.Search(q, 1)[0].ID }
	add("a", vecs[0])
	add("b", vecs[1])
	if !s.Remove("a") || s.Remove("a") || s.Remove("nope") {
		t.Fatal("tail Remove contract broken")
	}
	add("a", vecs[2])
	if err := s.Add("a", vecs[2]); err == nil {
		t.Fatal("duplicate live id in the tail accepted")
	}
	s.Freeze()
	if err := s.Add("a", vecs[3]); err == nil {
		t.Fatal("duplicate live id in the base accepted")
	}
	if s.Len() != 2 || top(vecs[2]) != "a" {
		t.Fatalf("after seal: Len %d, nearest to a's row %s", s.Len(), top(vecs[2]))
	}
	if !s.Remove("a") || s.Remove("a") {
		t.Fatal("base Remove contract broken")
	}
	if s.Len() != 1 || top(vecs[2]) != "b" {
		t.Fatalf("removed base row still found: Len %d", s.Len())
	}
	add("a", vecs[3])
	if !s.Remove("a") || s.Remove("a") {
		t.Fatal("Remove of a re-added id must hit the tail row once, never the dead base row")
	}
	add("a", vecs[3])
	z := s.Freeze()
	if s.Len() != 2 || top(vecs[3]) != "a" {
		t.Fatalf("after second seal: Len %d", s.Len())
	}
	if again := s.Freeze(); again != z {
		t.Error("an unchanged index sealed a new segment")
	}
	thawed := z.Thaw()
	s.Remove("b")
	if thawed.Len() != 2 {
		t.Error("a removal after the freeze reached the pinned index")
	}
}

// TestSQFlatSealKeepsBaseRows: a seal takes the tail as it stands only when
// there is nothing else to fold in — not merely when the live count happens
// to equal the tail's length (two live base rows, two dead tail rows).
func TestSQFlatSealKeepsBaseRows(t *testing.T) {
	const dim = 8
	vecs := randomVectors(6, dim, 15)
	s := NewSQFlat(dim)
	for i, id := range []string{"a", "b"} {
		if err := s.Add(id, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	for i, id := range []string{"c", "d", "e", "f"} {
		if err := s.Add(id, vecs[2+i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove("c")
	s.Remove("d")
	want := s.Search(vecs[0], 6)
	s.Freeze()
	sameVecHits(t, "across the seal", s.Search(vecs[0], 6), want)
	if len(want) != 4 || want[0].ID != "a" || s.Len() != 4 {
		t.Errorf("before the seal: %+v; Len after it %d", want, s.Len())
	}
}

// TestSQFlatTailCompaction: churn confined to the tail keeps it within 2x
// of the live rows.
func TestSQFlatTailCompaction(t *testing.T) {
	const dim = 8
	vecs := randomVectors(400, dim, 9)
	s := NewSQFlat(dim)
	for i, v := range vecs {
		id := fmt.Sprintf("v%03d", i)
		if err := s.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if i >= 10 {
			s.Remove(fmt.Sprintf("v%03d", i-10))
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if len(s.ids) > 2*compactThreshold+20 || len(s.codes) != len(s.ids)*dim || len(s.norms) != len(s.ids) {
		t.Errorf("tail holds %d rows (%d codes, %d norms) for 10 live", len(s.ids), len(s.codes), len(s.norms))
	}
	if hits := s.Search(vecs[399], 3); hits[0].ID != "v399" {
		t.Errorf("nearest after compaction: %+v", hits)
	}
}

func TestSQFlatErrors(t *testing.T) {
	s := NewSQFlat(4)
	if err := s.Add("short", embed.Vector{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if s.Len() != 0 || s.Search(embed.Vector{1, 0, 0, 0}, 3) != nil {
		t.Error("rejected rows were indexed")
	}
	if err := s.Add("ok", embed.Vector{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Nothing the embedder produces, but no input may write a norm the
	// decoder would refuse: a non-finite row scores 0 and seals.
	for i, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if err := s.Add(fmt.Sprint("bad", i), embed.Vector{1, bad, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range s.norms {
		if !(n >= 0) || math.IsInf(float64(n), 0) {
			t.Errorf("tail norm %v", n)
		}
	}
	s.Freeze()
	if hits := s.Search(embed.Vector{1, 0, 0, 0}, 1); len(hits) != 1 || hits[0].ID != "bad0" && hits[0].ID != "ok" {
		t.Errorf("after sealing non-finite rows: %+v", hits)
	}
	if s.Search(embed.Vector{1, 0}, 3) != nil || s.Search(embed.Vector{1, 0, 0, 0}, 0) != nil {
		t.Error("a query of the wrong dimension, or k = 0, returned hits")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSQFlat(0) did not panic")
		}
	}()
	NewSQFlat(0)
}

// TestSQFlatResidencyCountsHeldBytes: codes and norms are priced where
// they sit — tail and an unsaved seal on the heap, an adopted or reopened
// segment as exactly its row sections of the file.
func TestSQFlatResidencyCountsHeldBytes(t *testing.T) {
	const dim, n = 16, 50
	s, _ := buildSQ(t, randomVectors(n, dim, 3), dim)
	rowBytes := int64(n * (dim + 4))
	if heap, mapped, rows := s.Residency(); heap != rowBytes || mapped != 0 || rows != n {
		t.Errorf("tail only: %d heap, %d mapped, %d rows", heap, mapped, rows)
	}
	z := s.Freeze()
	if heap, mapped, rows := s.Residency(); heap != rowBytes || mapped != 0 || rows != 0 {
		t.Errorf("sealed, no file: %d heap, %d mapped, %d rows", heap, mapped, rows)
	}
	path := saveAndAdopt(t, z, t.TempDir())
	if !z.seg.Load().r.Mapped() {
		t.Skip("no mmap on this platform")
	}
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	codes, _ := fr.Bytes("codes")
	norms, _ := fr.Bytes("norms")
	if err := s.Add("late", randomVectors(1, dim, 4)[0]); err != nil {
		t.Fatal(err)
	}
	if heap, mapped, rows := s.Residency(); mapped != int64(len(codes)+len(norms)) || mapped != rowBytes || heap != dim+4 || rows != 1 {
		t.Errorf("adopted plus one: %d heap, %d mapped (file sections %d), %d rows", heap, mapped, len(codes)+len(norms), rows)
	}
}

// TestSQFlatAdoptDropsHeapCopy: once a segment is adopted nothing reaches
// the buffer it was sealed into.
func TestSQFlatAdoptDropsHeapCopy(t *testing.T) {
	const dim = 16
	vecs := randomVectors(60, dim, 13)
	s, _ := buildSQ(t, vecs, dim)
	z := s.Freeze()
	collected := make(chan struct{})
	runtime.SetFinalizer(z.seg.Load().r, func(any) { close(collected) })
	saveAndAdopt(t, z, t.TempDir())
	if !z.seg.Load().r.Mapped() {
		t.Skip("no mmap on this platform: the adopted copy is a heap copy too")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if hits := s.Search(vecs[7], 1); len(hits) != 1 || hits[0].ID != "v007" {
				t.Fatalf("adopted index lost v007: %+v", hits)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the sealed heap buffer is still reachable after Adopt")
}

// TestSearchAllocatesPerQueryNotPerRow: every family keeps its top-k in
// the typed heap, so a search over 5,000 rows allocates a handful of
// objects however many rows it scores.
func TestSearchAllocatesPerQueryNotPerRow(t *testing.T) {
	const dim, n, k = 32, 5000, 10
	vecs := randomVectors(n, dim, 17)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
	}
	flat, tail, sealed := NewFlat(dim), NewSQFlat(dim), NewSQFlat(dim)
	for _, ix := range []liveIndex{flat, tail, sealed} {
		for i, v := range vecs {
			if err := ix.Add(ids[i], v); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealed.Freeze()
	families := map[string]Searcher{
		"flat": flat, "ivf": NewIVF(ids, vecs, 16, 16, 1),
		"sqflat-tail": tail, "sqflat-sealed": sealed,
	}
	q := vecs[123]
	for name, ix := range families {
		if hits := ix.Search(q, k); len(hits) != k || hits[0].ID != "v0123" {
			t.Fatalf("%s: %+v", name, hits)
		}
		limit := 4.0
		if name == "sqflat-sealed" {
			limit += k // the survivors' IDs are copied out of the segment
		}
		if name == "ivf" {
			limit += 2 // the cell ranking
		}
		if allocs := testing.AllocsPerRun(20, func() { ix.Search(q, k) }); allocs > limit {
			t.Errorf("%s: %.0f allocations per search over %d rows, want <= %.0f", name, allocs, n, limit)
		}
	}
}

func TestDotCodesMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 31, 128} {
		q := make([]float32, n)
		c := make([]int8, n)
		var want float64
		for i := range q {
			q[i] = float32(i%7) - 2.5
			c[i] = int8(i*37%255 - 127)
			want += float64(q[i]) * float64(c[i])
		}
		if got := float64(dotCodes(q, c)); math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
			t.Errorf("n=%d: dotCodes = %v, want %v", n, got, want)
		}
	}
}
