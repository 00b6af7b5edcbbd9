package vecindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

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
	return bytes.Clone(b) // the container is read-only and goes with r
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

// segmentParts are the sections of a segment as a test wants to break
// them.
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

// openSegment loads a container's bytes as a segment and wraps it as an
// index.
func openSegment(data []byte) (*SQFlat, error) {
	r, err := binfmt.NewReader(data)
	if err != nil {
		return nil, err
	}
	seg, err := loadSegment(r)
	if err != nil {
		return nil, err
	}
	return (&Frozen{seg: seg}).Thaw(), nil
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
// disagree — built by a broken seal or derivation — is an error where it is
// loaded, never a panic in a scan.
func TestSegmentDecoderBounds(t *testing.T) {
	valid := func() segmentParts { return validSegmentParts(t) }
	ix, err := openSegment(valid().bytes(t))
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
		if _, err := openSegment(p.bytes(t)); err == nil {
			t.Errorf("%s: opened", name)
		}
	}
	// A section missing altogether.
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", valid().meta); err != nil {
		t.Fatal(err)
	}
	bw.Section("ids", valid().ids)
	var buf bytes.Buffer
	if _, err := bw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(buf.Bytes()); err == nil {
		t.Error("a segment without its row sections opened")
	}
}

// TestNonBinfmtVectorSnapshotRejected: the loader is "binfmt or error" —
// bytes that do not start with the container magic are refused.
func TestNonBinfmtVectorSnapshotRejected(t *testing.T) {
	if _, err := openSegment([]byte("\x0e\xff\x81\x03\x01\x01\x0cflatSnapshot")); err == nil {
		t.Error("a segment without the binfmt magic loaded")
	}
}

// TestVectorSnapshotCorruption flips bytes of a sealed segment's container
// and demands each flip either fails to load or (padding bytes) changes
// nothing.
func TestVectorSnapshotCorruption(t *testing.T) {
	const dim = 6
	sq, _ := buildSQ(t, randomVectors(20, dim, 81), dim)
	good := containerBytes(t, sq.Freeze())
	q := randomVectors(1, dim, 82)[0]
	want := sq.Search(q, 5)

	for off := range good {
		mut := bytes.Clone(good)
		mut[off] ^= 0xa5
		loaded, err := openSegment(mut)
		if err != nil {
			continue
		}
		sameVecHits(t, fmt.Sprintf("silent flip at %d", off), want, loaded.Search(q, 5))
	}
	for _, cut := range []int{0, 3, len(good) / 2, len(good) - 1} {
		if _, err := openSegment(bytes.Clone(good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded", cut)
		}
	}
}

// TestSQFlatSaveOpenProperty: whatever rows went in, the container a seal
// built loads to an index that answers as the one that sealed it.
func TestSQFlatSaveOpenProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%40) + 1
		vecs := randomVectors(count, 4, seed)
		ix := NewSQFlat(4)
		for i, v := range vecs {
			if err := ix.Add(fmt.Sprintf("v%d", i), v); err != nil {
				return false
			}
		}
		ix.Remove("v0")
		loaded, err := openSegment(containerBytes(t, ix.Freeze()))
		if err != nil || loaded.Len() != count-1 {
			return false
		}
		a, b := ix.Search(vecs[0], 3), loaded.Search(vecs[0], 3)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] || a[i].ID == "v0" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzOpenSQSnapshot: any container that loads as a segment must be fully
// servable, and seal again into one that loads (Freeze panics otherwise).
func FuzzOpenSQSnapshot(f *testing.F) {
	sq, _ := buildSQ(f, randomVectors(12, 4, 91), 4)
	f.Add(containerBytes(f, sq.Freeze()))
	f.Add([]byte(binfmt.Magic))
	f.Add([]byte{})
	// A broken ids column behind valid checksums.
	bad := badIDColumns(f)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		p := validSegmentParts(f)
		p.ids = bad[name]
		f.Add(p.bytes(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := openSegment(bytes.Clone(data)) // the segment would alias the input
		if err != nil {
			return
		}
		_ = loaded.Search(embed.Vector{1, 0, 0, 0}, 5)
		loaded.Remove("v003")
		if err := loaded.Add("fresh", embed.Vector{0, 1, 0, 0}); err != nil {
			return // another dimension, or "fresh" is an ID the input holds
		}
		loaded.Freeze()
	})
}
