package seglist

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/binfmt"
)

// frontCoded builds a front-coded column of ids, which must ascend, and
// returns it with the reader that holds its bytes.
func frontCoded(t *testing.T, ids []string) (binfmt.FrontCodedCol, *binfmt.Reader) {
	t.Helper()
	var fc binfmt.FrontCoder
	for _, id := range ids {
		fc.Add(id)
	}
	w := binfmt.NewWriter()
	w.FrontCoded("ids", &fc)
	r, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.FrontCoded("ids")
	if err != nil {
		t.Fatal(err)
	}
	return col, r
}

// TestTopKMatchesSort offers the live rows of a list of segments and a tail
// to TopK and checks its hits against sorting every row by score, then ID.
// Scores come from three values, so ties cross segments and the tail, and
// k runs past the number of rows.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		ids := rng.Perm(200)[:10+rng.Intn(150)] // distinct, unordered
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = fmt.Sprintf("row%03d", id)
		}
		// Split into segments, each ascending by ID, and a tail in any order.
		var top TopK // reused for every k, as a pooled one is
		var readers []*binfmt.Reader
		type row struct {
			ord   int32
			id    string
			score float64
		}
		var rows []row
		ord, rest := 0, names
		var firsts []int
		var cols [][]string
		for len(rest) > 0 && rng.Intn(4) != 0 {
			n := 1 + rng.Intn(len(rest))
			seg := slices.Clone(rest[:n])
			slices.Sort(seg)
			firsts, cols = append(firsts, ord), append(cols, seg)
			for _, id := range seg {
				rows = append(rows, row{ord: int32(ord), id: id})
				ord++
			}
			rest = rest[n:]
		}
		top.IDs.Reset(ord, rest)
		for i, seg := range cols {
			c, r := frontCoded(t, seg)
			readers = append(readers, r)
			top.IDs.Add(firsts[i], c)
		}
		for _, id := range rest {
			rows = append(rows, row{ord: int32(ord), id: id})
			ord++
		}
		var live []row
		for i := range rows {
			rows[i].score = float64(rng.Intn(3))
			if rng.Intn(5) != 0 { // a fifth are dead: never offered
				live = append(live, rows[i])
			}
		}
		slices.SortFunc(live, func(a, b row) int {
			if c := cmp.Compare(b.score, a.score); c != 0 {
				return c
			}
			return strings.Compare(a.id, b.id)
		})
		for _, k := range []int{1, 2, 7, len(live), len(live) + 5} {
			if k == 0 {
				continue
			}
			top.Reset(k, len(live))
			for _, i := range rng.Perm(len(rows)) {
				if r := rows[i]; slices.ContainsFunc(live, func(l row) bool { return l.ord == r.ord }) {
					top.Offer(r.ord, r.score)
				}
			}
			var want []Hit
			for _, r := range live[:min(k, len(live))] {
				want = append(want, Hit{ID: r.id, Score: r.score})
			}
			if got := top.Hits(); !reflect.DeepEqual(got, want) && len(want)+len(got) > 0 {
				t.Fatalf("trial %d, k=%d, %d segments and %d tail rows:\n got %v\nwant %v", trial, k, len(cols), len(rest), got, want)
			}
		}
		runtime.KeepAlive(readers)
	}
}

// TestMergeBounds seals one element at a time, 1,024 times. After n seals
// the list holds at most ⌊log₂ n⌋+1 segments, since each segment holds more
// than twice the one after it. Every merge grows the segment an element is
// in by at least half, so no element has been copied more than
// ⌊log_1.5 n⌋ times (⌈log₂ n⌉ is not a bound: the eighth seal copies the
// first element a fourth time). Every element is in the list once, in seal
// order, and the list a seal was given is unchanged.
func TestMergeBounds(t *testing.T) {
	copies := make([]int, 1024)
	var segs [][]int
	size := func(s []int) int { return len(s) }
	merge := func(in [][]int) ([]int, error) {
		var out []int
		for _, s := range in {
			for _, e := range s {
				copies[e]++
				out = append(out, e)
			}
		}
		return out, nil
	}
	for n := 1; n <= 1024; n++ {
		before := slices.Clone(segs)
		next, err := Merge(segs, size, merge, []int{n - 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(segs, before) {
			t.Fatalf("seal %d changed the list it was given", n)
		}
		segs = next
		if max := bits.Len(uint(n)); len(segs) > max {
			t.Fatalf("after %d seals: %d segments, want at most %d", n, len(segs), max)
		}
		bound := 0 // ⌊log_1.5 n⌋
		for g := 1.5; g <= float64(n); g *= 1.5 {
			bound++
		}
		for e, c := range copies[:n] {
			if c > bound {
				t.Fatalf("after %d seals: element %d copied %d times, want at most %d", n, e, c, bound)
			}
		}
		if all := slices.Concat(segs...); len(all) != n || !slices.IsSorted(all) || all[n-1] != n-1 {
			t.Fatalf("after %d seals the list holds %v", n, all)
		}
	}
}

// TestMergeError returns a failed merge's error and no list.
func TestMergeError(t *testing.T) {
	bad := errors.New("bad merge")
	segs, err := Merge([]int{4}, func(n int) int { return n }, func([]int) (int, error) { return 0, bad }, 4)
	if !errors.Is(err, bad) || segs != nil {
		t.Fatalf("Merge = %v, %v; want nil, %v", segs, err, bad)
	}
	// Nothing to merge: the segment is appended and no merge runs.
	if segs, err := Merge([]int{4}, func(n int) int { return n }, func([]int) (int, error) { return 0, bad }, 1); err != nil || !slices.Equal(segs, []int{4, 1}) {
		t.Fatalf("Merge = %v, %v; want [4 1]", segs, err)
	}
}

func TestFind(t *testing.T) {
	for _, c := range []struct {
		firsts []int
		ord    int
		want   int
	}{
		{nil, 0, -1},
		{nil, 7, -1},
		{[]int{5, 10}, 0, -1},
		{[]int{5, 10}, 4, -1},
		{[]int{5, 10}, 5, 0},
		{[]int{5, 10}, 9, 0},
		{[]int{5, 10}, 10, 1},
		{[]int{5, 10}, 99, 1},
		{[]int{0, 3, 3, 8}, 2, 0},
		{[]int{0, 3, 3, 8}, 3, 2}, // segment 1 is empty
		{[]int{0, 3, 3, 8}, 7, 2},
		{[]int{0, 3, 3, 8}, 8, 3},
	} {
		if got := Find(c.firsts, c.ord); got != c.want {
			t.Errorf("Find(%v, %d) = %d, want %d", c.firsts, c.ord, got, c.want)
		}
	}
}

type testPart struct {
	ids binfmt.FrontCodedCol
	Part
}

// TestParts numbers parts, looks IDs up past tombstones, and keeps a
// clone's tombstones apart from its source's.
func TestParts(t *testing.T) {
	a, ra := frontCoded(t, []string{"a", "c", "e"})
	b, rb := frontCoded(t, []string{"b", "c", "d", "f"})
	parts := []*testPart{{ids: a, Part: NewPart(3)}, {ids: b, Part: NewPart(4)}}
	ids := func(p *testPart) binfmt.FrontCodedCol { return p.ids }
	parts[0].Delete(1) // a's "c"; b's is live
	if rows, live := Number(parts); rows != 7 || live != 6 || parts[1].First != 3 {
		t.Fatalf("Number = %d rows, %d live, second first %d; want 7, 6, 3", rows, live, parts[1].First)
	}
	if p, ord := Lookup(parts, "c", ids); p != parts[1] || ord != 1 {
		t.Errorf("Lookup(c) = %v, %d; want the second part, 1", p, ord)
	}
	if p, ord := Lookup(parts, "z", ids); p != nil || ord != -1 {
		t.Errorf("Lookup(z) = %v, %d; want nil, -1", p, ord)
	}
	clone := parts[1].Clone()
	parts[1].Delete(0)
	if clone.Dead[0] || clone.Live != 4 || parts[1].Live != 3 {
		t.Errorf("a delete after Clone reached the clone: %+v", clone)
	}
	runtime.KeepAlive(ra)
	runtime.KeepAlive(rb)
}
