package vecindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
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

// writeSnapshotFile saves a capture into a new file and returns its path
// and bytes. Tests reopen captures from such a file, through OpenSQFile as
// the server does: there is no other loader.
func writeSnapshotFile(t testing.TB, save func(w io.Writer) error) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return writeBytesFile(t, buf.Bytes()), buf.Bytes()
}

// writeBytesFile puts data in a new file, for a loader to open by path as
// the server opens a shard.
func writeBytesFile(t testing.TB, data []byte) string {
	t.Helper()
	return writeBytesIn(t, t.TempDir(), data)
}

// writeBytesIn is writeBytesFile into a directory the caller made once (a
// fuzz target runs too often to make one per input).
func writeBytesIn(t testing.TB, dir string, data []byte) string {
	t.Helper()
	f, err := os.CreateTemp(dir, "vec-*.idx")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

func TestOpenVectorFilesServeMapped(t *testing.T) {
	const dim = 12
	vecs := randomVectors(150, dim, 51)
	queries := randomVectors(6, dim, 52)
	sq, _ := buildSQ(t, vecs, dim)
	t.Run("sqflat", func(t *testing.T) {
		path, _ := writeSnapshotFile(t, sq.Freeze().Save)
		got, err := OpenSQFile(path)
		if err != nil {
			t.Fatalf("OpenSQFile: %v", err)
		}
		if got.Len() != sq.Len() {
			t.Fatalf("Len drifted: %d vs %d", got.Len(), sq.Len())
		}
		for qi, q := range queries {
			sameVecHits(t, fmt.Sprintf("query %d", qi), sq.Search(q, 10), got.Search(q, 10))
		}
		// The opened index stays mutable: writes land in its tail and its
		// tombstones, never in the mapping.
		if err := got.Add("extra", queries[0]); err != nil {
			t.Fatalf("Add after open: %v", err)
		}
		if err := got.Add("v001", queries[0]); err == nil {
			t.Error("duplicate of a mapped row accepted")
		}
		if !got.Remove("v000") || got.Remove("v000") {
			t.Error("Remove of a mapped row is not once-only")
		}
		if hits := got.Search(queries[0], 1); len(hits) != 1 || hits[0].ID != "extra" {
			t.Errorf("row added after open not found: %+v", hits)
		}
	})
	t.Run("sqflat-no-mmap", func(t *testing.T) {
		t.Setenv(binfmt.NoMmapEnv, "1")
		path, _ := writeSnapshotFile(t, sq.Freeze().Save)
		got, err := OpenSQFile(path)
		if err != nil {
			t.Fatalf("OpenSQFile (no mmap): %v", err)
		}
		sameVecHits(t, "fallback", sq.Search(queries[0], 10), got.Search(queries[0], 10))
	})
}

// TestNonBinfmtVectorSnapshotRejected: the loader is "binfmt or error" —
// bytes that do not start with the container magic (e.g. a snapshot from
// a release older than binfmt) are refused.
func TestNonBinfmtVectorSnapshotRejected(t *testing.T) {
	path := writeBytesFile(t, []byte("\x0e\xff\x81\x03\x01\x01\x0cflatSnapshot"))
	if _, err := OpenSQFile(path); err == nil {
		t.Error("OpenSQFile accepted a snapshot without the binfmt magic")
	}
}

// TestVectorSnapshotCorruption flips bytes of a segment file and demands
// each flip either fails loudly or (padding bytes) changes nothing.
func TestVectorSnapshotCorruption(t *testing.T) {
	const dim = 6
	sq, _ := buildSQ(t, randomVectors(20, dim, 81), dim)
	path, good := writeSnapshotFile(t, sq.Freeze().Save)
	q := randomVectors(1, dim, 82)[0]
	want := sq.Search(q, 5)

	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xa5
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenSQFile(path)
		if err != nil {
			continue
		}
		sameVecHits(t, fmt.Sprintf("silent flip at %d", off), want, loaded.Search(q, 5))
	}
	for _, cut := range []int{0, 3, len(good) / 2, len(good) - 1} {
		if _, err := OpenSQFile(writeBytesFile(t, good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded", cut)
		}
	}

}

// idColumn is the payload of a front-coded ids section holding ids in the
// order given, which the coder does not check.
func idColumn(t testing.TB, ids ...string) []byte {
	t.Helper()
	var e binfmt.FrontCoder
	for _, id := range ids {
		e.Add(id)
	}
	w := binfmt.NewWriter()
	w.FrontCoded("ids", &e)
	r, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Bytes("ids")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// badIDColumns are ids sections for a three-row segment that the loader
// must refuse: each breaks the front-coded column of "a", "b", "c" one way.
func badIDColumns(t testing.TB) map[string][]byte {
	forge := func(patch func(b []byte) []byte) []byte {
		return patch(idColumn(t, "a", "b", "c"))
	}
	// The valid payload: count 3, block offset 0, then 1 'a', 0 1 'b', 0 1 'c'.
	return map[string][]byte{
		"shared prefix longer than the ID before": forge(func(b []byte) []byte { b[10] = 2; return b }),
		"truncated uvarint":                       forge(func(b []byte) []byte { return b[:14] }),
		"block offset out of range":               forge(func(b []byte) []byte { binary.NativeEndian.PutUint32(b[4:], 99); return b }),
		"count past the IDs":                      forge(func(b []byte) []byte { binary.NativeEndian.PutUint32(b, 4); return b }),
		"count disagreeing with meta":             idColumn(t, "a", "b"),
		"IDs not increasing":                      idColumn(t, "b", "a", "c"),
		"duplicate IDs":                           idColumn(t, "a", "c", "c"),
	}
}

// segmentParts are the sections of a segment file as a test wants to
// break them.
type segmentParts struct {
	meta  binMeta
	ids   []byte
	norms []float32
	codes []int8
}

func (p segmentParts) bytes(t testing.TB) []byte {
	t.Helper()
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", p.meta); err != nil {
		t.Fatal(err)
	}
	bw.Section("ids", p.ids)
	bw.Float32s("norms", p.norms)
	bw.Int8s("codes", p.codes)
	var buf bytes.Buffer
	if _, err := bw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (p segmentParts) file(t testing.TB) string {
	t.Helper()
	return writeBytesFile(t, p.bytes(t))
}

// validSegmentParts is a three-row segment: a, b and c, of two dimensions.
func validSegmentParts(t testing.TB) segmentParts {
	return segmentParts{
		meta:  binMeta{Family: segmentFamily, Dim: 2, Count: 3},
		ids:   idColumn(t, "a", "b", "c"),
		norms: []float32{0.01, 0, 0.5},
		codes: []int8{127, 1, 0, 0, -127, 3},
	}
}

// TestSegmentDecoderBounds: a container whose CRCs hold but whose columns
// disagree — written by hand, or by something else — is an error at open,
// never a panic in a scan.
func TestSegmentDecoderBounds(t *testing.T) {
	valid := func() segmentParts { return validSegmentParts(t) }
	ix, err := OpenSQFile(valid().file(t))
	if err != nil {
		t.Fatalf("the valid segment does not open: %v", err)
	}
	if hits := ix.Search(embed.Vector{1, 0}, 3); len(hits) != 3 || hits[0].ID != "a" {
		t.Fatalf("the valid segment searches wrong: %+v", hits)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	cases := map[string]func(*segmentParts){
		"codes shorter than count x dim": func(p *segmentParts) { p.codes = p.codes[:5] },
		"codes longer than count x dim":  func(p *segmentParts) { p.codes = append(p.codes, 1, 2) },
		"codes for another dim":          func(p *segmentParts) { p.meta.Dim = 3 },
		"norms shorter than count":       func(p *segmentParts) { p.norms = p.norms[:2] },
		"norms longer than count":        func(p *segmentParts) { p.norms = append(p.norms, 1) },
		"NaN norm":                       func(p *segmentParts) { p.norms[1] = nan },
		"+Inf norm":                      func(p *segmentParts) { p.norms[0] = inf },
		"-Inf norm":                      func(p *segmentParts) { p.norms[0] = -inf },
		"negative norm":                  func(p *segmentParts) { p.norms[2] = -0.5 },
		"negative count":                 func(p *segmentParts) { p.meta.Count = -1 },
		"zero dim":                       func(p *segmentParts) { p.meta.Dim = 0 },
		"huge dim":                       func(p *segmentParts) { p.meta.Dim = math.MaxInt64 },
		"another family":                 func(p *segmentParts) { p.meta.Family = "flat" },
	}
	for name, ids := range badIDColumns(t) {
		cases["ids: "+name] = func(p *segmentParts) { p.ids = ids }
	}
	for name, breakIt := range cases {
		p := valid()
		breakIt(&p)
		if _, err := OpenSQFile(p.file(t)); err == nil {
			t.Errorf("%s: opened", name)
		}
	}
	// A section missing altogether, and one cut short inside the file.
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", valid().meta); err != nil {
		t.Fatal(err)
	}
	bw.Section("ids", valid().ids)
	var buf bytes.Buffer
	if _, err := bw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSQFile(writeBytesFile(t, buf.Bytes())); err == nil {
		t.Error("a segment without its row sections opened")
	}
	whole, err := os.ReadFile(valid().file(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSQFile(writeBytesFile(t, whole[:len(whole)-4])); err == nil {
		t.Error("a segment with a truncated codes section opened")
	}
}

// FuzzOpenSQSnapshot: anything that opens must be fully servable.
func FuzzOpenSQSnapshot(f *testing.F) {
	sq, _ := buildSQ(f, randomVectors(12, 4, 91), 4)
	_, good := writeSnapshotFile(f, sq.Freeze().Save)
	f.Add(good)
	f.Add([]byte(binfmt.Magic))
	f.Add([]byte{})
	// A broken ids column behind valid checksums.
	bad := badIDColumns(f)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		p := validSegmentParts(f)
		p.ids = bad[name]
		f.Add(p.bytes(f))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeBytesIn(t, dir, data)
		loaded, err := OpenSQFile(path)
		os.Remove(path) // a mapping outlives its name
		if err != nil {
			return
		}
		_ = loaded.Search(embed.Vector{1, 0, 0, 0}, 5)
		loaded.Remove("v003")
		if err := loaded.Add("fresh", embed.Vector{0, 1, 0, 0}); err != nil {
			return // "fresh" may be an ID the input holds
		}
		var out bytes.Buffer
		if err := loaded.Freeze().Save(&out); err != nil {
			t.Fatalf("re-save of an opened segment failed: %v", err)
		}
	})
}
