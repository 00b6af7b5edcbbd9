package vecindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
)

// saveAndAdopt writes z into a new file under dir and adopts it.
func saveAndAdopt(t *testing.T, z Frozen, dir string) string {
	t.Helper()
	f, err := os.CreateTemp(dir, "vec-*.idx")
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := z.Adopt(f.Name()); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	return f.Name()
}

// sealAdoptDifferential drives an index that is frozen, saved and adopted
// at intervals and one that never is through the same seeded adds, removes
// and re-adds, with a searcher running against the first throughout, and
// holds every search — head, and pinned at each freeze — to the
// reference's hits. The previous file is unlinked and the collector run
// after each adopt, so a row left pointing into a released mapping faults.
func sealAdoptDifferential(t *testing.T, build func() Index) {
	const dim = 16
	r := rand.New(rand.NewSource(7))
	vec := func() embed.Vector {
		v := make(embed.Vector, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		embed.Normalize(v)
		return v
	}
	queries := []embed.Vector{vec(), vec(), vec()}
	ref, ix := build(), build()
	dir := t.TempDir()

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
		ix   Index
		want [][]Hit
	}
	var pins []pin
	var lastFile string
	live := map[string]bool{}
	for step := 0; step < 600; step++ {
		id := fmt.Sprintf("v%03d", r.Intn(90))
		switch {
		case live[id] && r.Intn(3) > 0:
			if a, b := ref.Remove(id), ix.Remove(id); a != b {
				t.Fatalf("step %d: Remove(%s) = %v vs %v", step, id, a, b)
			}
			delete(live, id)
		case !live[id]:
			v := vec()
			if a, b := ref.Add(id, v), ix.Add(id, v); (a == nil) != (b == nil) {
				t.Fatalf("step %d: Add(%s) = %v vs %v", step, id, a, b)
			}
			live[id] = true
		}
		if step%60 == 59 {
			z := ix.Freeze()
			if step%120 == 119 { // every other capture is thawed before it is adopted
				next := saveAndAdopt(t, z, dir)
				if lastFile != "" {
					os.Remove(lastFile)
				}
				lastFile = next
			}
			thawed, err := z.Thaw()
			if err != nil {
				t.Fatal(err)
			}
			p := pin{ix: thawed}
			for _, q := range queries {
				p.want = append(p.want, ref.Search(q, 10))
			}
			pins = append(pins, p)
			runtime.GC()
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, ix.Len(), ref.Len())
		}
		if st, views := storeOf(ix), 0; st != nil {
			for ord, v := range st.vecs {
				if !st.deleted[ord] && st.inBlob(v) {
					views++
				}
			}
			if st.viewing != views {
				t.Fatalf("step %d: viewing = %d, %d live rows view the file", step, st.viewing, views)
			}
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("step %d query %d", step, qi), ix.Search(q, 10), ref.Search(q, 10))
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
}

// storeOf returns the row store of a float-row family, nil for SQFlat.
func storeOf(ix Index) *store {
	switch ix := ix.(type) {
	case *IVF:
		return &ix.store
	case *LSH:
		return &ix.store
	default:
		return nil
	}
}

// sealAdoptFamilies are the families whose every search has one right
// answer, the never-frozen reference's: SQFlat scores the same codes
// wherever they sit, and an untrained IVF scans every row exactly.
var sealAdoptFamilies = map[string]func() Index{
	"ivf":    func() Index { return NewIVF(16, Cosine, 4, 4, 1) },
	"sqflat": func() Index { return NewSQFlat(16) },
}

func TestSealAdoptDifferential(t *testing.T) {
	for name, build := range sealAdoptFamilies {
		t.Run(name, func(t *testing.T) { sealAdoptDifferential(t, build) })
	}
}

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously: a mapping released while a row still views
// it is unmapped at once and the next read of that row faults.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t, sealAdoptFamilies["ivf"])
	sealAdoptDifferential(t, sealAdoptFamilies["sqflat"])
}

// TestAdoptRepointsByIdentity: after an adopt the rows the capture holds
// are views of the file, a row re-added since the freeze stays the new
// heap row, and a file the capture did not write moves nothing.
func TestAdoptRepointsByIdentity(t *testing.T) {
	const dim = 8
	vecs := randomVectors(40, dim, 3)
	f := NewIVF(dim, Cosine, 4, 4, 1) // untrained: an exact scan
	for i, v := range vecs {
		if err := f.Add(fmt.Sprintf("v%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	z := f.Freeze()
	replaced := randomVectors(1, dim, 99)[0]
	f.Remove("v07")
	if err := f.Add("v07", replaced); err != nil {
		t.Fatal(err)
	}
	f.Remove("v08")
	if err := f.Add("late", vecs[0]); err != nil {
		t.Fatal(err)
	}

	other := NewIVF(dim, Cosine, 4, 4, 1)
	if err := other.Add("x", vecs[1]); err != nil {
		t.Fatal(err)
	}
	foreign, _ := writeSnapshotFile(t, other.Freeze().Save)
	own, data := writeSnapshotFile(t, z.Save)
	data[len(data)-2] ^= 0x10
	flipped := filepath.Join(t.TempDir(), "flipped.idx")
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"foreign": foreign, "flipped": flipped} {
		if err := z.Adopt(path); err == nil {
			t.Errorf("%s file adopted", name)
		}
		if _, mapped, _ := f.Residency(); mapped != 0 {
			t.Errorf("%s file: %d bytes moved anyway", name, mapped)
		}
	}
	captured := z.(*frozenSnap).snap.live().Vecs[7]
	if err := z.Adopt(own); err != nil {
		t.Fatal(err)
	}
	heap, mapped, heapRows := f.Residency()
	if f.pin == nil || !f.pin.Mapped() {
		t.Skip("no mmap on this platform")
	}
	// 40 captured, v07 and v08 removed since; live on the heap are v07's
	// new row and the late row.
	if want := int64(38 * dim * 4); mapped != want {
		t.Errorf("mapped %d bytes, want %d", mapped, want)
	}
	if heapRows != 2 || heap != int64(2*dim*4) {
		t.Errorf("heap %d bytes in %d rows, want 2 rows", heap, heapRows)
	}
	if got := f.vecs[f.byID["v07"]]; &got[0] == &captured[0] || got[0] != replaced[0] {
		t.Error("the re-added row was re-pointed at the capture's old row")
	}
	wrote, _ := os.ReadFile(own)
	if _, again := writeSnapshotFile(t, z.Save); !bytes.Equal(again, wrote) {
		t.Error("the adopted capture saves other bytes than the file it became")
	}
	thawed, err := z.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	if hits := thawed.Search(vecs[7], 1); len(hits) != 1 || hits[0].ID != "v07" || hits[0].Score < 0.999 {
		t.Errorf("pinned search lost the captured v07: %+v", hits)
	}
}

// TestAdoptMovesTombstonesOffOldMapping: a row removed after one adopt is
// a tombstone viewing that file; the next capture skips it, so the next
// adopt must move it to the heap before the old mapping is released —
// compaction reads every stored row, tombstones included.
func TestAdoptMovesTombstonesOffOldMapping(t *testing.T) {
	const dim = 8
	ix := NewIVF(dim, Cosine, 4, 4, 1)
	for i, v := range randomVectors(30, dim, 5) {
		if err := ix.Add(fmt.Sprintf("v%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	first := saveAndAdopt(t, ix.Freeze(), dir)
	ix.Remove("v03")
	saveAndAdopt(t, ix.Freeze(), dir)
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // let the first mapping's finalizer unmap it
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	ord := ix.byID["v03"]
	if !ix.deleted[ord] || ix.inBlob(ix.vecs[ord]) {
		t.Fatal("the tombstone is not a heap row")
	}
	if got := ix.vecs[ord][0]; got != randomVectors(30, dim, 5)[3][0] {
		t.Errorf("tombstoned row reads %v after its mapping was released", got)
	}
}

// TestCaptureKeepsItsMappingAlive: a capture frozen while the rows are
// views of one file, and thawed before it is adopted onto the next, must
// itself keep the first mapping alive — the live index lets go of it at
// the adopt.
func TestCaptureKeepsItsMappingAlive(t *testing.T) {
	const dim = 8
	vecs := randomVectors(30, dim, 9)
	f := NewIVF(dim, Cosine, 4, 4, 1)
	for i, v := range vecs {
		if err := f.Add(fmt.Sprintf("v%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	first := saveAndAdopt(t, f.Freeze(), dir)
	second := f.Freeze() // its rows are views of the first file
	thawed, err := second.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	want := thawed.Search(vecs[3], 5)
	saveAndAdopt(t, second, dir)
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	sameVecHits(t, "thawed before the adopt", thawed.Search(vecs[3], 5), want)
}

// TestAdoptAfterReopen is a restart followed by the first checkpoint, for
// every family: the index is opened from a file, so its rows (for SQFlat,
// every column) are views of that file; it is then frozen, saved and
// adopted onto a second file, the first is unlinked and the collector run
// until its mapping is gone. Nothing the live index or a capture thawed
// afterwards reads may still sit in the first mapping. With removes is the
// capture that compacts into fresh rows; without, the one that shares the
// opened ones (SQFlat: the very segment it opened, saved verbatim).
func TestAdoptAfterReopen(t *testing.T) {
	const dim = 16
	vecs := randomVectors(120, dim, 21)
	queries := randomVectors(4, dim, 22)
	fill := func(ix Index) Index {
		for i, v := range vecs {
			if err := ix.Add(fmt.Sprintf("v%03d", i), v); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	trained := NewIVF(dim, Cosine, 6, 3, 1)
	fill(trained).(*IVF).Train()
	families := map[string]struct {
		built Index
		open  func(path string) (Index, error)
	}{
		"ivf":    {trained, func(p string) (Index, error) { return OpenIVFFile(p) }},
		"lsh":    {fill(NewLSH(dim, 8, 4, 1)), func(p string) (Index, error) { return OpenLSHFile(p) }},
		"sqflat": {fill(NewSQFlat(dim)), func(p string) (Index, error) { return OpenSQFile(p) }},
	}
	for name, fam := range families {
		for _, removes := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/removes=%v", name, removes), func(t *testing.T) {
				first, _ := writeSnapshotFile(t, fam.built.Freeze().Save)
				ix, err := fam.open(first)
				if err != nil {
					t.Fatal(err)
				}
				ref := fam.built
				if removes {
					ref, err = fam.open(first)
					if err != nil {
						t.Fatal(err)
					}
					for _, id := range []string{"v003", "v077"} {
						ix.Remove(id)
						ref.Remove(id)
					}
				}
				z := ix.Freeze()
				saveAndAdopt(t, z, t.TempDir())
				if err := os.Remove(first); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					runtime.GC()
					time.Sleep(5 * time.Millisecond)
				}
				thawed, err := z.Thaw()
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					want := ref.Search(q, 10)
					sameVecHits(t, fmt.Sprintf("live, query %d", qi), ix.Search(q, 10), want)
					sameVecHits(t, fmt.Sprintf("thawed, query %d", qi), thawed.Search(q, 10), want)
				}
			})
		}
	}
}
