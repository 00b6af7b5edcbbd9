package main

import (
	"flag"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/lakeio"
	"repro/internal/workload"
)

// TestSeedLeavesHeapCompact seeds the default workload lake into an empty
// data directory through openDurable, as `verifai serve -lake DIR
// -data-dir DIR` does, and after two collections holds the free slots left
// inside in-use heap spans to at most 0.8 of the live objects. Long-lived
// state allocated one small object at a time among the short-lived
// objects set-up discards pins spans that are left mostly empty. It is
// the first test of its package, so nothing else has shaped the heap, and
// it does not run under the race detector, whose allocator lays the heap
// out otherwise.
func TestSeedLeavesHeapCompact(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the heap's layout")
	}
	lakeDir := filepath.Join(t.TempDir(), "lake")
	if err := saveDefaultLake(lakeDir); err != nil {
		t.Fatal(err)
	}
	f := registerServeFlags(flag.NewFlagSet("serve", flag.ContinueOnError), "")
	sys, err := openDurable(filepath.Join(t.TempDir(), "data"), lakeDir, f.openOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	runtime.GC()
	runtime.GC()
	samples := []metrics.Sample{{Name: "/memory/classes/heap/unused:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(samples)
	unused, objects := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	t.Logf("heap: %d B of objects, %d B of free slots in in-use spans (%.2f)", objects, unused, float64(unused)/float64(objects))
	if unused*5 > objects*4 {
		t.Errorf("seeding left %d B of free slots in in-use spans against %d B of objects, more than 0.8 of them", unused, objects)
	}
}

// saveDefaultLake writes the default workload lake to dir, as lakegen
// does, and lets go of it.
func saveDefaultLake(dir string) error {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		return err
	}
	defer corpus.Lake.Close()
	return lakeio.Save(corpus.Lake, dir)
}
