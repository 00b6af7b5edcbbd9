package invindex

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// sealWords is the vocabulary of the seal/adopt tests' documents.
var sealWords = []string{"golf", "open", "prize", "palmer", "hogan", "dover", "kansas", "climate", "record", "july", "total", "money"}

func sealDoc(r *rand.Rand) []string {
	terms := make([]string, 3+r.Intn(6))
	for i := range terms {
		terms[i] = sealWords[r.Intn(len(sealWords))]
	}
	return terms
}

var sealQueries = [][]string{{"golf", "prize"}, {"dover", "kansas", "climate"}, {"palmer"}, {"money", "total", "open", "money"}}

// adoptInto saves z into a new file under dir and adopts it.
func adoptInto(t *testing.T, z *Frozen, dir string) string {
	t.Helper()
	f, err := os.CreateTemp(dir, "seg-*.idx")
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

// sealAdoptDifferential drives a sealed-and-adopted index and one that is
// never sealed through the same seeded adds, deletes and re-adds, with a
// searcher running against the sealed one throughout, and holds every
// search — head, and pinned at each seal — to the reference's hits, scores
// to the bit.
func sealAdoptDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ref, ix := New(), New()
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
				ix.SearchTerms(sealQueries[i%len(sealQueries)], 10)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	type pin struct {
		ix   *Index
		want [][]Hit
	}
	var pins []pin
	var lastFile string
	live := map[string]bool{}
	for step := 0; step < 400; step++ {
		id := fmt.Sprintf("doc-%03d", r.Intn(120))
		switch {
		case live[id] && r.Intn(3) > 0: // delete, often followed by a re-add under the same ID
			if a, b := ref.Delete(id), ix.Delete(id); a != b {
				t.Fatalf("step %d: Delete(%s) = %v vs %v", step, id, a, b)
			}
			delete(live, id)
		case !live[id]:
			terms := sealDoc(r)
			if a, b := ref.AddTerms(id, terms), ix.AddTerms(id, terms); (a == nil) != (b == nil) {
				t.Fatalf("step %d: AddTerms(%s) = %v vs %v", step, id, a, b)
			}
			live[id] = true
		}
		if step%50 == 49 {
			z := ix.Freeze()
			if again := ix.Freeze(); again != z {
				t.Fatalf("step %d: an unwritten index sealed a second segment", step)
			}
			p := pin{ix: z.Index()}
			for _, q := range sealQueries {
				p.want = append(p.want, ref.SearchTerms(q, 10))
			}
			pins = append(pins, p)
			if step%100 == 99 { // every other seal stays on the heap
				next := adoptInto(t, z, dir)
				if lastFile != "" {
					os.Remove(lastFile) // as a checkpoint swap unlinks the previous files
				}
				lastFile = next
				runtime.GC()
			}
		}
		if ix.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, ix.Len(), ref.Len())
		}
		for _, q := range sealQueries {
			if got, want := ix.SearchTerms(q, 10), ref.SearchTerms(q, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d query %v:\n got  %v\n want %v", step, q, got, want)
			}
		}
		for pi, p := range pins {
			for qi, q := range sealQueries {
				if got := p.ix.SearchTerms(q, 10); !reflect.DeepEqual(got, p.want[qi]) {
					t.Fatalf("step %d pin %d query %v:\n got  %v\n want %v", step, pi, q, got, p.want[qi])
				}
			}
		}
	}
	if heap, mapped, _ := ix.Residency(); mapped == 0 || heap != 0 {
		t.Errorf("after the last adopt: %d heap, %d mapped segment bytes", heap, mapped)
	}
}

func TestSealAdoptDifferential(t *testing.T) { sealAdoptDifferential(t) }

// TestSealAdoptUnderGCPressure reruns the differential with the collector
// running almost continuously, so a view that outlived its mapping, or a
// heap buffer dropped while still searched, faults here.
func TestSealAdoptUnderGCPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("GC-pressure rerun skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	sealAdoptDifferential(t)
}

// TestSealAdoptDropsHeapCopy: once a segment is adopted nothing reaches
// the buffer it was sealed into.
func TestSealAdoptDropsHeapCopy(t *testing.T) {
	ix := buildSmall(t)
	z := ix.Freeze()
	collected := make(chan struct{})
	runtime.SetFinalizer(z.cols.Load().r, func(any) { close(collected) })
	adoptInto(t, z, t.TempDir())
	if !z.cols.Load().r.Mapped() {
		t.Skip("no mmap on this platform: the adopted copy is a heap copy too")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if got := ix.Search("golf prize", 5); len(got) == 0 {
				t.Fatal("adopted index finds nothing")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the sealed heap buffer is still reachable after Adopt")
}

// TestAdoptRefusesOtherFiles: a file that is not the one the segment
// wrote — another container, or the right one with a flipped byte — is
// not adopted, and the segment keeps serving from the heap.
func TestAdoptRefusesOtherFiles(t *testing.T) {
	ix := buildSmall(t)
	want := ix.Search("golf prize", 5)
	z := ix.Freeze()

	other := New()
	if err := other.Add("x", "an unrelated document about kansas"); err != nil {
		t.Fatal(err)
	}
	foreign := saveToFile(t, other)

	own := filepath.Join(t.TempDir(), "own.idx")
	f, err := os.Create(own)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(own)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	flipped := filepath.Join(t.TempDir(), "flipped.idx")
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, path := range map[string]string{"foreign": foreign, "flipped": flipped, "missing": own + ".nope"} {
		if err := z.Adopt(path); err == nil {
			t.Errorf("%s file adopted", name)
		}
		if z.cols.Load().r.Mapped() {
			t.Errorf("%s file: segment moved anyway", name)
		}
		if got := ix.Search("golf prize", 5); !reflect.DeepEqual(got, want) {
			t.Errorf("%s file: results changed: %v vs %v", name, got, want)
		}
	}
	if err := z.Adopt(own); err != nil {
		t.Fatalf("own file refused: %v", err)
	}
	if got := ix.Search("golf prize", 5); !reflect.DeepEqual(got, want) {
		t.Errorf("after adopt: %v vs %v", got, want)
	}
}
