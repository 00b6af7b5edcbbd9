package vecindex

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// sameVecHits fails unless a and b agree exactly (IDs and scores).
func sameVecHits(t *testing.T, label string, a, b []Hit) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: hit counts differ: %v vs %v", label, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: hit %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func writeSnapshotFile(t *testing.T, save func(w io.Writer) error) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(t.TempDir(), "vec.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestOpenVectorFilesServeMapped(t *testing.T) {
	const dim = 12
	vecs := randomVectors(150, dim, 51)
	queries := randomVectors(6, dim, 52)

	flat := NewFlat(dim, Cosine)
	ivf := NewIVF(dim, Cosine, 8, 3, 99)
	lsh := NewLSH(dim, 10, 4, 99)
	for i, v := range vecs {
		id := fmt.Sprintf("v%03d", i)
		for _, add := range []func(string, embed.Vector) error{flat.Add, ivf.Add, lsh.Add} {
			if err := add(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	ivf.Train()

	t.Run("flat", func(t *testing.T) {
		path, _ := writeSnapshotFile(t, flat.Freeze().Save)
		got, err := OpenFlatFile(path)
		if err != nil {
			t.Fatalf("OpenFlatFile: %v", err)
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("query %d", qi), flat.Search(q, 10), got.Search(q, 10))
		}
		// The loaded index stays mutable: vector views are copy-on-grow.
		if err := got.Add("extra", queries[0]); err != nil {
			t.Fatalf("Add after open: %v", err)
		}
		if !got.Remove("v000") {
			t.Error("Remove after open = false")
		}
	})
	t.Run("ivf", func(t *testing.T) {
		path, _ := writeSnapshotFile(t, ivf.Freeze().Save)
		got, err := OpenIVFFile(path)
		if err != nil {
			t.Fatalf("OpenIVFFile: %v", err)
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("query %d", qi), ivf.Search(q, 10), got.Search(q, 10))
		}
		if err := got.Add("extra", queries[0]); err != nil {
			t.Fatalf("Add after open: %v", err)
		}
	})
	t.Run("lsh", func(t *testing.T) {
		path, _ := writeSnapshotFile(t, lsh.Freeze().Save)
		got, err := OpenLSHFile(path)
		if err != nil {
			t.Fatalf("OpenLSHFile: %v", err)
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("query %d", qi), lsh.Search(q, 10), got.Search(q, 10))
		}
	})
	t.Run("flat-no-mmap", func(t *testing.T) {
		t.Setenv(binfmt.NoMmapEnv, "1")
		path, _ := writeSnapshotFile(t, flat.Freeze().Save)
		got, err := OpenFlatFile(path)
		if err != nil {
			t.Fatalf("OpenFlatFile (no mmap): %v", err)
		}
		sameVecHits(t, "fallback", flat.Search(queries[0], 10), got.Search(queries[0], 10))
	})
}

// TestNonBinfmtVectorSnapshotRejected: every loader is "binfmt or error" —
// bytes that do not start with the container magic (e.g. a snapshot from
// a release older than binfmt) are refused, from a stream and from a file.
func TestNonBinfmtVectorSnapshotRejected(t *testing.T) {
	stale := []byte("\x0e\xff\x81\x03\x01\x01\x0cflatSnapshot")
	path := filepath.Join(t.TempDir(), "stale.idx")
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	loaders := map[string]func() error{
		"LoadFlat":     func() error { _, err := LoadFlat(bytes.NewReader(stale)); return err },
		"LoadIVF":      func() error { _, err := LoadIVF(bytes.NewReader(stale)); return err },
		"LoadLSH":      func() error { _, err := LoadLSH(bytes.NewReader(stale)); return err },
		"LoadSQ":       func() error { _, err := LoadSQ(bytes.NewReader(stale)); return err },
		"OpenFlatFile": func() error { _, err := OpenFlatFile(path); return err },
		"OpenIVFFile":  func() error { _, err := OpenIVFFile(path); return err },
		"OpenLSHFile":  func() error { _, err := OpenLSHFile(path); return err },
		"OpenSQFile":   func() error { _, err := OpenSQFile(path); return err },
	}
	for name, load := range loaders {
		if err := load(); err == nil {
			t.Errorf("%s accepted a snapshot without the binfmt magic", name)
		}
	}
}

// TestVectorSnapshotCorruption flips every byte of a binary snapshot and
// demands each flip either fails loudly or (padding bytes) changes nothing.
func TestVectorSnapshotCorruption(t *testing.T) {
	const dim = 6
	vecs := randomVectors(20, dim, 81)
	sq := NewSQFlat(dim, Cosine, 4)
	for i, v := range vecs {
		if err := sq.Add(fmt.Sprintf("v%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sq.Freeze().Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	q := randomVectors(1, dim, 82)[0]
	want := sq.Search(q, 5)

	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xa5
		loaded, err := LoadSQ(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		sameVecHits(t, fmt.Sprintf("silent flip at %d", off), want, loaded.Search(q, 5))
	}
	for _, cut := range []int{0, 3, len(good) / 2, len(good) - 1} {
		if _, err := LoadSQ(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded", cut)
		}
	}

	// Family confusion must be loud: an SQ snapshot is not a flat one.
	if _, err := LoadFlat(bytes.NewReader(good)); err == nil {
		t.Error("LoadFlat accepted an sqflat snapshot")
	}
}
