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
func saveAndAdopt(t *testing.T, z *Frozen, dir string) string {
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
// reference's hits: the codes score the same wherever they sit. The
// previous file is unlinked and the collector run after each adopt, so a
// row left pointing into a released mapping faults.
func sealAdoptDifferential(t *testing.T) {
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
	ref, ix := NewSQFlat(dim), NewSQFlat(dim)
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
		ix   *SQFlat
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
			p := pin{ix: z.Thaw()}
			for _, q := range queries {
				p.want = append(p.want, ref.Search(q, 10))
			}
			pins = append(pins, p)
			runtime.GC()
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, ix.Len(), ref.Len())
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

func TestSealAdoptDifferential(t *testing.T) {
	t.Run("sqflat", sealAdoptDifferential)
}

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously: a mapping released while a row still views
// it is unmapped at once and the next read of that row faults.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t)
}

// TestAdoptRepointsByIdentity: Adopt moves a capture onto the file Save
// wrote and onto no other — a foreign container or a flipped byte moves
// nothing. Afterwards the capture saves the file's bytes, a thaw of it
// answers as of the freeze, and what the live index wrote since the freeze
// stays in its tail and tombstones.
func TestAdoptRepointsByIdentity(t *testing.T) {
	const dim = 8
	vecs := randomVectors(40, dim, 3)
	s, _ := buildSQ(t, vecs, dim)
	z := s.Freeze()
	replaced := randomVectors(1, dim, 99)[0]
	s.Remove("v007")
	if err := s.Add("v007", replaced); err != nil {
		t.Fatal(err)
	}
	s.Remove("v008")
	if err := s.Add("late", vecs[0]); err != nil {
		t.Fatal(err)
	}

	other := NewSQFlat(dim)
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
		if _, mapped, _ := s.Residency(); mapped != 0 {
			t.Errorf("%s file: %d bytes moved anyway", name, mapped)
		}
	}
	if err := z.Adopt(own); err != nil {
		t.Fatal(err)
	}
	if !z.seg.Load().r.Mapped() {
		t.Skip("no mmap on this platform")
	}
	// The 40 sealed rows are the file's, v007's and v008's tombstoned; the
	// tail holds v007's new row and the late one.
	heap, mapped, heapRows := s.Residency()
	if want := int64(40 * (dim + 4)); mapped != want {
		t.Errorf("mapped %d bytes, want %d", mapped, want)
	}
	if heapRows != 2 || heap != 2*(dim+4) {
		t.Errorf("heap %d bytes in %d rows, want 2 rows", heap, heapRows)
	}
	if hits := s.Search(replaced, 1); len(hits) != 1 || hits[0].ID != "v007" || hits[0].Score < 0.99 {
		t.Errorf("the re-added v007 does not answer from its new row: %+v", hits)
	}
	wrote, _ := os.ReadFile(own)
	if _, again := writeSnapshotFile(t, z.Save); !bytes.Equal(again, wrote) {
		t.Error("the adopted capture saves other bytes than the file it became")
	}
	thawed := z.Thaw()
	if hits := thawed.Search(vecs[7], 1); thawed.Len() != 40 || len(hits) != 1 || hits[0].ID != "v007" || hits[0].Score < 0.99 {
		t.Errorf("pinned search lost the captured v007: %+v", hits)
	}
}

// TestCaptureKeepsItsMappingAlive: a capture whose segment is the mapping
// of one file, thawed before the live index moves onto the next, must
// itself keep the first mapping alive — the live index lets go of it at
// the adopt.
func TestCaptureKeepsItsMappingAlive(t *testing.T) {
	const dim = 8
	vecs := randomVectors(30, dim, 9)
	s, _ := buildSQ(t, vecs, dim)
	dir := t.TempDir()
	first := saveAndAdopt(t, s.Freeze(), dir)
	thawed := s.Freeze().Thaw() // nothing written since: the first file's segment
	want := thawed.Search(vecs[3], 5)
	s.Remove("v003")
	saveAndAdopt(t, s.Freeze(), dir)
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	sameVecHits(t, "thawed before the adopt", thawed.Search(vecs[3], 5), want)
}

// TestAdoptAfterReopen is a restart followed by the first checkpoint: the
// index is opened from a file, so every column is a view of that file; it
// is then frozen, saved and adopted onto a second file, the first is
// unlinked and the collector run until its mapping is gone. Nothing the
// live index or a capture thawed afterwards reads may still sit in the
// first mapping. With removes is the capture that compacts into a fresh
// segment; without, the one that shares the opened segment, saved verbatim.
func TestAdoptAfterReopen(t *testing.T) {
	const dim = 16
	vecs := randomVectors(120, dim, 21)
	queries := randomVectors(4, dim, 22)
	built, _ := buildSQ(t, vecs, dim)
	for _, removes := range []bool{false, true} {
		t.Run(fmt.Sprintf("sqflat/removes=%v", removes), func(t *testing.T) {
			first, _ := writeSnapshotFile(t, built.Freeze().Save)
			ix, err := OpenSQFile(first)
			if err != nil {
				t.Fatal(err)
			}
			ref := built
			if removes {
				ref, err = OpenSQFile(first)
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
			thawed := z.Thaw()
			for qi, q := range queries {
				want := ref.Search(q, 10)
				sameVecHits(t, fmt.Sprintf("live, query %d", qi), ix.Search(q, 10), want)
				sameVecHits(t, fmt.Sprintf("thawed, query %d", qi), thawed.Search(q, 10), want)
			}
		})
	}
}
