package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/lakeio"
	"repro/internal/workload"
)

// TestSeedLeavesHeapCompact seeds the default workload lake into an empty
// data directory through openDurable, as `verifai serve -lake DIR
// -data-dir DIR` does, and after two collections holds the free slots left
// inside in-use heap spans to at most 3 MiB, and the heap's objects to at
// most 4 MB where they can be mapped. Long-lived state allocated one small object at a time among
// the short-lived objects set-up discards pins spans that are left mostly
// empty; and the tables that grow with the lake (the sealed catalog with
// its triples, the token table) belong off the heap, so what stays on it
// is small. Both bounds are absolute: the free slots are a roughly fixed
// 2.4-2.8 MB, so a ratio to the objects would tighten as they shrink. It
// is the first test of its package, so nothing else has shaped the heap,
// and it does not run under the race detector, whose allocator lays the
// heap out otherwise.
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
	t.Logf("heap: %d B of objects, %d B of free slots in in-use spans", objects, unused)
	if unused > 3<<20 {
		t.Errorf("seeding left %d B of free slots in in-use spans, more than 3 MiB", unused)
	}
	if objects > 4e6 && runtime.GOOS == "linux" && os.Getenv(binfmt.NoMmapEnv) == "" {
		t.Errorf("seeding left %d B of heap objects, more than 4 MB", objects)
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
