package invindex

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binfmt"
)

// saveToFile freezes ix into a binfmt snapshot file and returns its path.
func saveToFile(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bm25.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Freeze().Save(f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openBytes puts data in a new file and opens it the way the server opens a
// shard: OpenFile is the one loader.
func openBytes(t testing.TB, data []byte, opts ...Option) (*Index, error) {
	t.Helper()
	return openBytesIn(t, t.TempDir(), data, opts...)
}

// openBytesIn is openBytes through a directory the caller made once (a
// fuzz target runs too often to make one per input); the file is unlinked
// once open, which a mapping outlives.
func openBytesIn(t testing.TB, dir string, data []byte, opts ...Option) (*Index, error) {
	t.Helper()
	path := filepath.Join(dir, "bm25.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	return OpenFile(path, opts...)
}

// sameHits fails the test unless a and b agree on IDs and (within fp
// tolerance) scores.
func sameHits(t *testing.T, label string, a, b []Hit) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: hit counts differ: %v vs %v", label, a, b)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("%s: hit %d: %s vs %s", label, i, a[i].ID, b[i].ID)
		}
		if diff := a[i].Score - b[i].Score; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: hit %d score drift: %v vs %v", label, i, a[i].Score, b[i].Score)
		}
	}
}

func TestOpenFileServesBaseSegment(t *testing.T) {
	orig := buildSmall(t)
	path := saveToFile(t, orig)

	ix, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if ix.base == nil {
		t.Fatal("binfmt snapshot did not load as a base segment")
	}
	if ix.Len() != orig.Len() {
		t.Errorf("Len = %d, want %d", ix.Len(), orig.Len())
	}
	if ix.Terms() != orig.Terms() {
		t.Errorf("Terms = %d, want %d", ix.Terms(), orig.Terms())
	}
	if !ix.Contains("d3") || ix.Contains("ghost") {
		t.Error("Contains wrong over base segment")
	}
	for _, q := range []string{"golf prize", "fox springfield", "the quick brown fox"} {
		sameHits(t, q, orig.Search(q, 10), ix.Search(q, 10))
	}

	// Explain must resolve base-tier documents.
	want, ok1 := orig.Explain("golf prize", "d3")
	got, ok2 := ix.Explain("golf prize", "d3")
	if !ok1 || !ok2 {
		t.Fatalf("Explain ok: %v vs %v", ok1, ok2)
	}
	if len(want) != len(got) {
		t.Fatalf("Explain terms differ: %v vs %v", want, got)
	}
	for term, c := range want {
		if diff := got[term] - c; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Explain[%s] = %v, want %v", term, got[term], c)
		}
	}
}

func TestBaseSegmentFallbackMatchesMmap(t *testing.T) {
	orig := buildSmall(t)
	path := saveToFile(t, orig)
	t.Setenv(binfmt.NoMmapEnv, "1")
	ix, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile (no mmap): %v", err)
	}
	sameHits(t, "fallback", orig.Search("golf prize", 10), ix.Search("golf prize", 10))
}

func TestTwoTierMutation(t *testing.T) {
	path := saveToFile(t, buildSmall(t))
	ix, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}

	// Duplicate IDs are rejected across tiers.
	if err := ix.Add("d3", "dup"); err == nil {
		t.Error("Add accepted a duplicate base-tier id")
	}

	// Deleting a base document flips only the tombstone bitmap.
	if !ix.Delete("d3") {
		t.Fatal("Delete(d3) = false")
	}
	if ix.Delete("d3") {
		t.Error("double Delete(d3) = true")
	}
	if ix.Len() != 4 {
		t.Errorf("Len after base delete = %d", ix.Len())
	}
	for _, h := range ix.Search("golf prize", 10) {
		if h.ID == "d3" {
			t.Error("deleted base doc still retrieved")
		}
	}
	// The id can then be re-added into the delta.
	if err := ix.Add("d3", "golf prize golf prize rematch"); err != nil {
		t.Fatalf("re-Add after base delete: %v", err)
	}
	hits := ix.Search("golf prize", 10)
	if len(hits) == 0 || hits[0].ID != "d3" {
		t.Errorf("re-added doc not retrieved first: %v", hits)
	}

	// New delta docs rank against base docs in one score space.
	if err := ix.Add("d6", "springfield fox derby"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range ix.Search("fox springfield", 10) {
		if h.ID == "d6" {
			found = true
		}
	}
	if !found {
		t.Error("delta doc missing from results")
	}
	if !ix.Contains("d6") || ix.Contains("d99") {
		t.Error("Contains wrong across tiers")
	}

	// Freezing the two-tier index compacts base tombstones away and a
	// reload reproduces the same rankings.
	var buf bytes.Buffer
	if err := ix.Freeze().Save(&buf); err != nil {
		t.Fatalf("Save two-tier: %v", err)
	}
	reloaded, err := openBytes(t, buf.Bytes())
	if err != nil {
		t.Fatalf("Load two-tier: %v", err)
	}
	if reloaded.Len() != ix.Len() {
		t.Errorf("reloaded Len = %d, want %d", reloaded.Len(), ix.Len())
	}
	for _, q := range []string{"golf prize", "fox springfield derby", "congressional election"} {
		sameHits(t, q, ix.Search(q, 10), reloaded.Search(q, 10))
	}
}

// TestNonBinfmtSnapshotRejected: OpenFile is "binfmt or error" — bytes
// that do not start with the container magic (e.g. a snapshot from a
// release older than binfmt) are refused.
func TestNonBinfmtSnapshotRejected(t *testing.T) {
	if _, err := openBytes(t, []byte("\x0e\xff\x81\x03\x01\x01\x08snapshot")); err == nil {
		t.Error("OpenFile accepted a snapshot without the binfmt magic")
	}
}

// TestBinarySnapshotCorruption flips every byte of a snapshot and demands
// each flip either fails loudly at open or (for bytes outside any recorded
// section, e.g. alignment padding) leaves search results untouched.
func TestBinarySnapshotCorruption(t *testing.T) {
	orig := buildSmall(t)
	var buf bytes.Buffer
	if err := orig.Freeze().Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	want := orig.Search("golf prize", 10)

	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x5a
		ix, err := openBytes(t, mut)
		if err != nil {
			continue
		}
		sameHits(t, fmt.Sprintf("silent flip at %d", off), want, ix.Search("golf prize", 10))
	}

	for _, cut := range []int{0, 1, len(good) / 2, len(good) - 1} {
		if _, err := openBytes(t, good[:cut]); err == nil {
			t.Errorf("truncation to %d bytes loaded", cut)
		}
	}
}

// TestStaticValidationRejects hand-crafts structurally-broken snapshots
// (valid container CRCs, invalid column semantics) and demands loud opens.
func TestStaticValidationRejects(t *testing.T) {
	type parts struct {
		meta    staticMeta
		ids     []string
		lengths []int32
		idsort  []uint32
		terms   []string
		postIdx []uint32
		posts   []int32
	}
	valid := func() parts {
		return parts{
			meta:    staticMeta{Family: "bm25", K1: 1.2, B: 0.75, Docs: 2, Terms: 2, Pairs: 3, TotalLen: 5},
			ids:     []string{"a", "b"},
			lengths: []int32{2, 3},
			idsort:  []uint32{0, 1},
			terms:   []string{"alpha", "beta"},
			postIdx: []uint32{0, 1, 3},
			posts:   []int32{0, 2, 0, 1, 1, 2},
		}
	}
	encode := func(t *testing.T, p parts) []byte {
		t.Helper()
		bw := binfmt.NewWriter()
		if err := bw.JSON("meta", p.meta); err != nil {
			t.Fatal(err)
		}
		bw.Strings("ids", p.ids)
		bw.Int32s("lengths", p.lengths)
		bw.Uint32s("idsort", p.idsort)
		bw.Strings("terms", p.terms)
		bw.Uint32s("postidx", p.postIdx)
		bw.Int32s("postings", p.posts)
		var buf bytes.Buffer
		if _, err := bw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if _, err := openBytes(t, encode(t, valid())); err != nil {
		t.Fatalf("valid hand-built snapshot rejected: %v", err)
	}

	cases := map[string]func(*parts){
		"wrong family":          func(p *parts) { p.meta.Family = "bm42" },
		"doc column mismatch":   func(p *parts) { p.lengths = p.lengths[:1] },
		"idsort out of range":   func(p *parts) { p.idsort[1] = 9 },
		"idsort not increasing": func(p *parts) { p.idsort[0], p.idsort[1] = 1, 0 },
		"terms unsorted":        func(p *parts) { p.terms[0], p.terms[1] = p.terms[1], p.terms[0] },
		"postidx short":         func(p *parts) { p.postIdx = p.postIdx[:2] },
		"postidx nonmonotonic":  func(p *parts) { p.postIdx[1] = 5 },
		"postidx bad start":     func(p *parts) { p.postIdx[0] = 1 },
		"negative length":       func(p *parts) { p.lengths[0] = -1 },
		"total length drift":    func(p *parts) { p.meta.TotalLen = 99 },
		"posting unknown doc":   func(p *parts) { p.posts[0] = 7 },
		"posting zero freq":     func(p *parts) { p.posts[1] = 0 },
		"pair count drift":      func(p *parts) { p.meta.Pairs = 2 },
	}
	for name, mutate := range cases {
		p := valid()
		mutate(&p)
		if _, err := openBytes(t, encode(t, p)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// TestSearchTermsAllocs enforces the zero-alloc hot loop: once scratch
// buffers are warm, a delta-tier search costs only the returned hit slice.
func TestSearchTermsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the scratch pool cannot stay warm")
	}
	ix := New()
	for i := 0; i < 200; i++ {
		if err := ix.Add(fmt.Sprintf("doc-%04d", i), fmt.Sprintf(
			"golf tournament prize money round %d with springfield results and filler %d", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	terms := ix.Analyze("golf prize springfield results")
	// Warm the scratch pool and dense accumulator.
	for i := 0; i < 10; i++ {
		if hits := ix.SearchTerms(terms, 10); len(hits) != 10 {
			t.Fatalf("warmup returned %d hits", len(hits))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ix.SearchTerms(terms, 10)
	})
	if allocs > 2 {
		t.Errorf("SearchTerms allocs/op = %.1f, want <= 2", allocs)
	}
}

func FuzzLoadBinarySnapshot(f *testing.F) {
	ix := New()
	for id, text := range map[string]string{
		"d1": "the quick brown fox jumps over the lazy dog",
		"d2": "golf tournament in springfield with record prize money",
		"d3": "the golf open championship prize",
	} {
		if err := ix.Add(id, text); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Freeze().Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(binfmt.Magic))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := openBytesIn(t, dir, data)
		if err != nil {
			return
		}
		// Anything that parses must be fully servable.
		_ = loaded.Search("golf prize", 5)
		_ = loaded.Len()
		_ = loaded.Terms()
		var out bytes.Buffer
		if err := loaded.Freeze().Save(&out); err != nil {
			t.Fatalf("re-save of parsed snapshot failed: %v", err)
		}
	})
}
