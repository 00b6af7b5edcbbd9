package invindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/textutil"
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
func openBytes(t testing.TB, data []byte) (*Index, error) {
	t.Helper()
	return openBytesIn(t, t.TempDir(), data)
}

// openBytesIn is openBytes through a directory the caller made once (a
// fuzz target runs too often to make one per input); the file is unlinked
// once open, which a mapping outlives.
func openBytesIn(t testing.TB, dir string, data []byte) (*Index, error) {
	t.Helper()
	path := filepath.Join(dir, "bm25.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	return OpenFile(path)
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
	if len(ix.segs) == 0 {
		t.Fatal("binfmt snapshot did not load as a base segment")
	}
	if ix.Len() != orig.Len() {
		t.Errorf("Len = %d, want %d", ix.Len(), orig.Len())
	}
	if !ix.Contains("d3") || ix.Contains("ghost") {
		t.Error("Contains wrong over base segment")
	}
	for _, q := range []string{"golf prize", "fox springfield", "the quick brown fox"} {
		sameHits(t, q, orig.Search(q, 10), ix.Search(q, 10))
	}
	// Every term of the mapped segment scores as it did in memory.
	for _, term := range textutil.TokenizeFiltered("the quick brown fox golf tournament springfield prize election") {
		if got, want := ix.SearchTerms([]string{term}, 10), orig.SearchTerms([]string{term}, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("term %q: %v, want %v", term, got, want)
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

// badIDColumns are ids sections for validParts' two documents that the
// loader must refuse: each breaks the front-coded column of "a", "b" one
// way.
func badIDColumns(t testing.TB) map[string][]byte {
	forge := func(patch func(b []byte) []byte) []byte {
		return patch(idColumn(t, "a", "b"))
	}
	// The valid payload: count 2, block offset 0, then 1 'a', 0 1 'b'.
	return map[string][]byte{
		"shared prefix longer than the ID before": forge(func(b []byte) []byte { b[10] = 2; return b }),
		"truncated uvarint":                       forge(func(b []byte) []byte { return b[:11] }),
		"block offset out of range":               forge(func(b []byte) []byte { binary.NativeEndian.PutUint32(b[4:], 99); return b }),
		"count past the IDs":                      forge(func(b []byte) []byte { binary.NativeEndian.PutUint32(b, 3); return b }),
		"count disagreeing with meta":             idColumn(t, "a", "b", "c"),
		"IDs not increasing":                      idColumn(t, "b", "a"),
		"duplicate IDs":                           idColumn(t, "a", "a"),
	}
}

// segParts are the columns of a hand-built segment; encode writes them
// with plain binfmt.Writer calls, so a test can break any one of them
// behind valid container CRCs.
type segParts struct {
	meta    staticMeta
	ids     []byte
	lengths []int32
	terms   []string
	df      []uint32
	rawDF   []byte // written as the df section in place of df when set
	postOff []uint32
	posts   []byte
}

// validParts is two documents and two terms: alpha in a (freq 2), beta in
// a (freq 1) and b (freq 2).
func validParts(t testing.TB) segParts {
	p := segParts{
		meta:    staticMeta{Family: "bm25", K1: 1.2, B: 0.75, Docs: 2, Terms: 2, Pairs: 3, TotalLen: 5},
		ids:     idColumn(t, "a", "b"),
		lengths: []int32{2, 3},
		terms:   []string{"alpha", "beta"},
	}
	p.setRuns([]int32{0, 2}, []int32{0, 1, 1, 2})
	return p
}

// setRuns encodes one run of interleaved (doc, freq) pairs per term.
func (p *segParts) setRuns(runs ...[]int32) {
	p.df, p.postOff, p.posts = nil, []uint32{0}, nil
	p.meta.Pairs = 0
	for _, run := range runs {
		p.posts = appendRun(p.posts, run)
		p.df = append(p.df, uint32(len(run)/2))
		p.postOff = append(p.postOff, uint32(len(p.posts)))
		p.meta.Pairs += len(run) / 2
	}
}

func (p segParts) encode(t testing.TB) []byte {
	t.Helper()
	bw := binfmt.NewWriter()
	if err := bw.JSON("meta", p.meta); err != nil {
		t.Fatal(err)
	}
	bw.Section("ids", p.ids)
	lengths := make([]uint32, len(p.lengths))
	for i, l := range p.lengths {
		lengths[i] = uint32(l)
	}
	bw.Uints("lengths", lengths)
	bw.Strings("terms", p.terms)
	if p.rawDF != nil {
		bw.Section("df", p.rawDF)
	} else {
		bw.Uints("df", p.df)
	}
	bw.Uint32s("postoff", p.postOff)
	bw.Section("postings", p.posts)
	var buf bytes.Buffer
	if _, err := bw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sections returns the payloads of the named sections of a container.
func sections(t testing.TB, data []byte, names ...string) [][]byte {
	t.Helper()
	fr, err := binfmt.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(names))
	for i, name := range names {
		b, err := fr.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bytes.Clone(b)
	}
	return out
}

// packBits is a hand-assembled postings block: header, then each
// {value, width} field bit-packed LSB first, padded to a byte.
func packBits(header []byte, fields ...[2]uint64) []byte {
	var acc, nacc uint64
	for _, f := range fields {
		acc |= f[0] << nacc
		for nacc += f[1]; nacc >= 8; nacc -= 8 {
			header, acc = append(header, byte(acc)), acc>>8
		}
	}
	if nacc > 0 {
		header = append(header, byte(acc))
	}
	return header
}

// exceptionRun is 128 pairs over 200 documents, every frequency 1: docs 0
// to 62, 100, 101 to 163, and 199. Every gap is 1 but two, 38 and 36, so
// its one block stores gap-1 at base width 0 and those two as exceptions.
func exceptionRun() []int32 {
	var run []int32
	for d := int32(0); d < 200; d++ {
		if d < 63 || d == 100 || d > 100 && d < 164 || d == 199 {
			run = append(run, d, 1)
		}
	}
	return run
}

// exceptionParts is a segment of 200 documents of length 1 and one term,
// t00001, whose run is exceptionRun: the shape FuzzOpenBM25Segment builds
// around its columns.
func exceptionParts(t testing.TB) segParts {
	p := segParts{
		meta:  staticMeta{Family: "bm25", K1: 1.2, B: 0.75, Docs: 200, Terms: 1, TotalLen: 200},
		terms: []string{"t00001"},
	}
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%03d", i)
		p.lengths = append(p.lengths, 1)
	}
	p.ids = idColumn(t, ids...)
	p.setRuns(exceptionRun())
	return p
}

// exceptionBlock is exceptionRun's block with its exceptions' count,
// positions and high bits as given (widths 0, 0 and xw).
func exceptionBlock(count byte, xw, pos1, pos2, hi1, hi2 uint64) []byte {
	return packBits([]byte{0x80, 0, count, byte(xw), byte(pos1), byte(pos2)}, [2]uint64{hi1, xw}, [2]uint64{hi2, xw})
}

// badExceptionBlocks are exceptionRun's block broken every way the
// decoder must notice.
func badExceptionBlocks() map[string][]byte {
	return map[string][]byte{
		"exception count over the block":     exceptionBlock(129, 6, 63, 127, 37, 35),
		"exception count of 0":               exceptionBlock(0, 6, 63, 127, 37, 35),
		"exception position at the count":    exceptionBlock(2, 6, 63, 128, 37, 35),
		"exception position past the count":  exceptionBlock(2, 6, 63, 255, 37, 35),
		"exception positions out of order":   exceptionBlock(2, 6, 127, 63, 35, 37),
		"exception positions equal":          exceptionBlock(2, 6, 63, 63, 37, 35),
		"exception with no high bits":        exceptionBlock(2, 6, 63, 127, 0, 35),
		"high bits push a doc to n":          exceptionBlock(2, 6, 63, 127, 37, 36),
		"high bits push a doc past int32":    exceptionBlock(2, 32, 63, 127, 37, math.MaxUint32),
		"exception width of 0":               exceptionBlock(2, 0, 63, 127, 0, 0),
		"exception width over 32":            exceptionBlock(2, 33, 63, 127, 37, 35),
		"base and exception widths over 32":  append([]byte{0x81}, exceptionBlock(2, 32, 63, 127, 37, 35)[1:]...),
		"base width over 32 with exceptions": append([]byte{0x80 | 33}, exceptionBlock(2, 6, 63, 127, 37, 35)[1:]...),
		"exception bytes truncated":          exceptionBlock(2, 6, 63, 127, 37, 35)[:7],
		"exception header truncated":         {0x80, 0, 2},
	}
}

// TestStaticValidationRejects hand-crafts structurally-broken snapshots
// (valid container CRCs, invalid column semantics) and demands loud opens.
func TestStaticValidationRejects(t *testing.T) {
	ix, err := openBytes(t, validParts(t).encode(t))
	if err != nil {
		t.Fatalf("valid hand-built snapshot rejected: %v", err)
	}
	if got := ix.SearchTerms([]string{"beta"}, 5); len(got) != 2 || got[0].ID != "b" {
		t.Fatalf("hand-built snapshot searches wrong: %v", got)
	}

	cases := map[string]func(*segParts){
		"wrong family":        func(p *segParts) { p.meta.Family = "bm42" },
		"doc column mismatch": func(p *segParts) { p.lengths = p.lengths[:1] },
		"terms unsorted":      func(p *segParts) { p.terms[0], p.terms[1] = p.terms[1], p.terms[0] },
		"df short":            func(p *segParts) { p.df = p.df[:1] },
		"df of 3 bytes":       func(p *segParts) { p.rawDF = []byte{1, 2, 0} },
		"df past the pairs":   func(p *segParts) { p.df[1] = 5 },
		"df of 0":             func(p *segParts) { p.df[0] = 0 },
		"negative length":     func(p *segParts) { p.lengths[0] = -1 },
		"total length drift":  func(p *segParts) { p.meta.TotalLen = 99 },
		"pair count drift":    func(p *segParts) { p.meta.Pairs = 2 },
	}
	for name, ids := range badIDColumns(t) {
		cases["ids: "+name] = func(p *segParts) { p.ids = ids }
	}
	for name, mutate := range cases {
		p := validParts(t)
		mutate(&p)
		if _, err := openBytes(t, p.encode(t)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// TestTranspose: a segment's postings turned around give each document its
// distinct terms, ascending, with their frequencies; a segment holding a
// document with more distinct terms than its length is an error.
func TestTranspose(t *testing.T) {
	ix, err := openBytes(t, validParts(t).encode(t))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ix.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [][]int32{tr.Doc(0), tr.Doc(1)}, [][]int32{{0, 2, 1, 1}, {1, 2}}; tr.Len() != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("hand-built segment transposes to %v, want %v", got, want)
	}
	short := validParts(t)
	short.lengths = []int32{1, 4}
	if ix, err = openBytes(t, short.encode(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Transpose(); err == nil {
		t.Error("a document with two terms and length 1 transposed")
	}

	// A sealed index of random documents, some deleted, some re-added.
	r := rand.New(rand.NewSource(3))
	ix, docs := New(), map[string][]string{}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("doc-%03d", r.Intn(150))
		if docs[id] != nil {
			ix.Delete(id)
		}
		docs[id] = sealDoc(r)
		if err := ix.AddTerms(id, textutil.BagOf(docs[id])); err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			ix.Freeze()
		}
	}
	ix.Freeze()
	if tr, err = ix.Transpose(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(docs) {
		t.Fatalf("%d documents transposed, %d indexed", tr.Len(), len(docs))
	}
	termIndex := map[string]int32{}
	for i := 0; i < tr.Terms.Len(); i++ {
		termIndex[string(tr.Terms.Bytes(i))] = int32(i)
	}
	for d, id := range tr.IDs.All() {
		freqs := map[string]int32{}
		for _, term := range docs[string(id)] {
			freqs[term]++
		}
		var want []int32
		for _, term := range slices.Sorted(maps.Keys(freqs)) {
			want = append(want, termIndex[term], freqs[term])
		}
		if got := tr.Doc(d); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, want %v", id, got, want)
		}
	}
}

// TestPostingsDecoderBounds breaks the packed postings every way the
// decoder must notice; each must fail the open, and none may panic.
func TestPostingsDecoderBounds(t *testing.T) {
	// validParts' postings: alpha [0 1 0b1], beta [0 1 0b10] — the
	// gap-1 and freq-1 widths, then the freq-1 values LSB first (every
	// gap-1 is 0, at width 0).
	if got, want := validParts(t).posts, []byte{0, 1, 1, 0, 1, 2}; !bytes.Equal(got, want) {
		t.Fatalf("valid postings = %v, want %v", got, want)
	}
	cases := map[string]func(*segParts){
		"gap width over 32":  func(p *segParts) { p.posts[0] = 33 },
		"freq width over 32": func(p *segParts) { p.posts[1] = 40 },
		"truncated header":   func(p *segParts) { p.posts, p.postOff = []byte{0, 0, 1, 2}, []uint32{0, 1, 4} },
		"truncated block":    func(p *segParts) { p.posts, p.postOff = []byte{0, 1, 0, 1, 2}, []uint32{0, 2, 5} },
		"doc not below n":    func(p *segParts) { p.setRuns([]int32{2, 2}, []int32{0, 1, 1, 2}) },
		"doc far past n":     func(p *segParts) { p.setRuns([]int32{math.MaxInt32 - 1, 2}, []int32{0, 1, 1, 2}) },
		"gap past n":         func(p *segParts) { p.posts[3] = 1 }, // beta's gaps-1 0 and 1 at width 1: docs 0, 2
		// Runs of 4 or more pairs take the two-gaps-a-load path.
		"long run past n":        func(p *segParts) { p.setRuns([]int32{0, 1, 1, 1, 2, 1, 3, 1}, []int32{0, 1, 1, 2}) },
		"long run not ascending": func(p *segParts) { p.setRuns([]int32{0, 2}, []int32{0, 1, 1, 1, 1, 1, 1, 1}) },
		"frequency over int32":   func(p *segParts) { p.setRuns([]int32{0, 0}, []int32{0, 1, 1, 2}) },
		"postoff nonmonotonic":   func(p *segParts) { p.postOff[1] = 7 },
		"postoff past section":   func(p *segParts) { p.postOff[2] = 9 },
		"postoff bad start":      func(p *segParts) { p.postOff[0] = 1 },
		"postoff short":          func(p *segParts) { p.postOff = p.postOff[:2] },
		"trailing bytes in run":  func(p *segParts) { p.posts, p.postOff = []byte{0, 1, 1, 0, 0, 1, 2}, []uint32{0, 4, 7} },
		"trailing section bytes": func(p *segParts) { p.posts = append(p.posts, 0) },
		"run with no blocks":     func(p *segParts) { p.df[1] = 0 },
	}
	for name, mutate := range cases {
		p := validParts(t)
		mutate(&p)
		if _, err := openBytes(t, p.encode(t)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// TestPostingsExceptions: exceptionRun's block stores its two wide gaps
// as exceptions, the segment searches them where they are, and every
// breakage of their count, positions, high bits or widths fails the open.
func TestPostingsExceptions(t *testing.T) {
	p := exceptionParts(t)
	if want := exceptionBlock(2, 6, 63, 127, 37, 35); !bytes.Equal(p.posts, want) {
		t.Fatalf("exceptionRun encodes as %v, want %v", p.posts, want)
	}
	ix, err := openBytes(t, p.encode(t))
	if err != nil {
		t.Fatalf("valid exception block rejected: %v", err)
	}
	var got []string
	for _, h := range ix.SearchTerms([]string{"t00001"}, 200) {
		got = append(got, h.ID)
	}
	slices.Sort(got)
	var want []string
	for i := 0; i < len(exceptionRun()); i += 2 {
		want = append(want, fmt.Sprintf("d%03d", exceptionRun()[i]))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the exception block searches to %v, want %v", got, want)
	}
	for name, block := range badExceptionBlocks() {
		p := exceptionParts(t)
		p.posts, p.postOff = block, []uint32{0, uint32(len(block))}
		if _, err := openBytes(t, p.encode(t)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// TestPostingsRoundTrip encodes runs of every block shape and decodes
// them back exactly.
func TestPostingsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	run := func(n int, gap, freq func(i int) int32) []int32 {
		pairs := make([]int32, 0, 2*n)
		doc := int32(-1)
		for i := 0; i < n; i++ {
			doc += gap(i)
			pairs = append(pairs, doc, freq(i))
		}
		return pairs
	}
	one := func(int) int32 { return 1 }
	small := func(int) int32 { return 1 + r.Int31n(9) }
	runs := map[string][]int32{
		"largest gap":        {math.MaxInt32 - 1, 3},
		"largest freq":       {0, math.MaxInt32, 5, 1},
		"both largest":       {0, 1, math.MaxInt32 - 1, math.MaxInt32},
		"all freq 1, dense":  run(blockLen, one, one),
		"all freq 1, sparse": run(3*blockLen+5, small, one),
	}
	for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 10000} {
		runs[fmt.Sprintf("%d pairs", n)] = run(n, small, small)
		runs[fmt.Sprintf("%d wide pairs", n)] = run(n, func(int) int32 { return 1 + r.Int31n(1<<17) }, func(int) int32 { return 1 + r.Int31n(math.MaxInt32) })
	}
	for name, pairs := range runs {
		enc := appendRun(nil, pairs)
		got, err := decodeRun(enc, len(pairs)/2, math.MaxInt32, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(got) != len(pairs) || (len(pairs) > 0 && !reflect.DeepEqual(got, pairs)) {
			t.Errorf("%s: decoded %d values, not the %d encoded", name, len(got), len(pairs))
		}
	}
	// A block of consecutive docs whose frequencies are all 1 is its
	// header alone.
	if enc := appendRun(nil, runs["all freq 1, dense"]); !bytes.Equal(enc, []byte{0, 0}) {
		t.Errorf("a dense all-freq-1 block encodes as %v, want [0 0]", enc)
	}
}

// TestPatchedRunsRoundTrip is the codec's property: random runs of 1, 2,
// 4, 127, 128, 129 and 10,000 pairs — gaps from 1 to 2^31-1, mostly 1
// with some small and a few as wide as the docs left allow, and
// frequencies up to MaxInt32 — decode to the pairs encoded, at the base
// width the encoder picks and at every narrower one, down to blocks whose
// every gap is an exception (short runs reach base widths past 28, where
// a load holds one gap, not two).
func TestPatchedRunsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	randomRun := func(n int) []int32 {
		pairs := make([]int32, 0, 2*n)
		doc := int64(-1)
		for i := 0; i < n; i++ {
			gap, room := int64(1), (math.MaxInt32-1-doc)/int64(n-i)
			switch x := r.Intn(10); {
			case x < 3:
				gap += r.Int63n(min(room, 1<<r.Intn(12)))
			case x == 3:
				gap += r.Int63n(room)
			}
			doc += gap
			freq := int32(1)
			switch x := r.Intn(10); {
			case x < 3:
				freq += r.Int31n(20)
			case x == 3:
				freq += r.Int31n(math.MaxInt32)
			}
			pairs = append(pairs, int32(doc), freq)
		}
		return pairs
	}
	for _, n := range []int{1, 2, 4, blockLen - 1, blockLen, blockLen + 1, 10000} {
		trials := 200
		if n == 10000 {
			trials = 5
		}
		for trial := 0; trial < trials; trial++ {
			pairs := randomRun(n)
			enc := appendRun(nil, pairs)
			got, err := decodeRun(enc, n, math.MaxInt32, nil)
			if err != nil || !slices.Equal(got, pairs) {
				t.Fatalf("%d pairs, trial %d: decoded %v (%v), want %v", n, trial, got, err, pairs)
			}
			if n > blockLen {
				continue
			}
			// The one block at every base width the encoder did not pick.
			gaps := make([]uint32, n)
			prev := int64(-1)
			for i := range gaps {
				gaps[i] = uint32(int64(pairs[2*i]) - prev - 1)
				prev = int64(pairs[2*i])
			}
			for gw := uint(0); gw < baseWidth(gaps, pairs); gw++ {
				enc := appendBlock(nil, gaps, pairs, gw)
				got, err := decodeRun(enc, n, math.MaxInt32, nil)
				if err != nil || !slices.Equal(got, pairs) {
					t.Fatalf("%d pairs, trial %d, base width %d: decoded %v (%v), want %v", n, trial, gw, got, err, pairs)
				}
			}
		}
	}
	// Blocks whose every gap is an exception.
	for _, n := range []int{1, blockLen - 1, blockLen} {
		pairs := make([]int32, 0, 2*n)
		gaps := make([]uint32, n)
		for i := range gaps {
			gaps[i] = 1 + uint32(r.Intn(1000))
			doc := int32(gaps[i])
			if i > 0 {
				doc += pairs[2*i-2] + 1
			}
			pairs = append(pairs, doc, 1+r.Int31n(3))
		}
		enc := appendBlock(nil, gaps, pairs, 0)
		if enc[0] != 0x80 || int(enc[2]) != n {
			t.Fatalf("%d pairs: header %v, want %d exceptions at base width 0", n, enc[:4], n)
		}
		got, err := decodeRun(enc, n, math.MaxInt32, nil)
		if err != nil || !slices.Equal(got, pairs) {
			t.Fatalf("%d pairs, all exceptions: decoded %v (%v), want %v", n, got, err, pairs)
		}
	}
}

// TestSearchTermsAllocs enforces the zero-alloc hot loop: once scratch
// buffers are warm, a delta-tier search costs only the returned hit slice,
// and a search of a sealed segment — every term's run decoded into the
// pooled buffer — that slice and the k ID strings it materializes.
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
	terms := textutil.TokenizeFiltered("golf prize springfield results")
	const k = 10
	for _, tier := range []struct {
		name string
		max  float64
	}{{"delta", 1}, {"sealed", 1 + k}} {
		if tier.name == "sealed" {
			ix.Freeze()
		}
		// Warm the scratch pool, its pair buffer and the dense accumulator.
		for i := 0; i < 10; i++ {
			if hits := ix.SearchTerms(terms, k); len(hits) != k {
				t.Fatalf("%s: warmup returned %d hits", tier.name, len(hits))
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			ix.SearchTerms(terms, k)
		})
		if allocs > tier.max {
			t.Errorf("%s: SearchTerms allocs/op = %.1f, want <= %.0f", tier.name, allocs, tier.max)
		}
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
		var out bytes.Buffer
		if err := loaded.Freeze().Save(&out); err != nil {
			t.Fatalf("re-save of parsed snapshot failed: %v", err)
		}
	})
}

// FuzzOpenBM25Segment fuzzes the front-coded IDs and the packed postings
// behind valid container CRCs, so inputs reach the decoders and not the
// checksum: docs documents of length 1, one term per postoff entry after
// the first, and the ids, df, postoff and postings columns as given (df
// at the width its length implies). A segment that opens must search
// every term and, sealed again with one more document, reopen to the hits
// the two-tier index returned.
func FuzzOpenBM25Segment(f *testing.F) {
	toBytes := func(v []uint32) []byte {
		b := make([]byte, 0, 4*len(v))
		for _, x := range v {
			b = binary.NativeEndian.AppendUint32(b, x)
		}
		return b
	}
	cols := func(data []byte) [][]byte { return sections(f, data, "ids", "df", "postoff", "postings") }
	p := validParts(f)
	valid := cols(p.encode(f))
	f.Add(uint8(p.meta.Docs), valid[0], valid[1], valid[2], valid[3])
	// A sealed segment with runs longer than a block.
	r := rand.New(rand.NewSource(1))
	ix := New()
	for i := 0; i < 200; i++ {
		if err := ix.AddTerms(fmt.Sprintf("d%03d", i), textutil.BagOf(sealDoc(r))); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Freeze().Save(&buf); err != nil {
		f.Fatal(err)
	}
	sealed := cols(buf.Bytes())
	f.Add(uint8(200), sealed[0], sealed[1], sealed[2], sealed[3])
	f.Add(uint8(0), []byte{0, 0, 0, 0}, []byte{}, []byte{0, 0, 0, 0}, []byte{})
	// validParts with its ids column broken.
	bad := badIDColumns(f)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		f.Add(uint8(p.meta.Docs), bad[name], valid[1], valid[2], valid[3])
	}
	// A block with exceptions, whole and broken.
	exc := cols(exceptionParts(f).encode(f))
	f.Add(uint8(200), exc[0], exc[1], exc[2], exc[3])
	badExc := badExceptionBlocks()
	for _, name := range slices.Sorted(maps.Keys(badExc)) {
		block := badExc[name]
		f.Add(uint8(200), exc[0], exc[1], toBytes([]uint32{0, uint32(len(block))}), block)
	}

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, docs uint8, ids, df, postOff, posts []byte) {
		p := segParts{
			meta: staticMeta{Family: "bm25", K1: 1.2, B: 0.75, Docs: int(docs), TotalLen: int64(docs)},
			ids:  ids, rawDF: df, posts: posts,
		}
		for i := 0; i+4 <= len(postOff); i += 4 {
			p.postOff = append(p.postOff, binary.NativeEndian.Uint32(postOff[i:]))
		}
		for i := 0; i < int(docs); i++ {
			p.lengths = append(p.lengths, 1)
		}
		for i := 1; i < len(p.postOff); i++ {
			p.terms = append(p.terms, fmt.Sprintf("t%05d", i))
		}
		p.meta.Terms = len(p.terms)
		// The pairs df holds, at the width its length implies.
		if w := len(df) / max(1, p.meta.Terms); w*p.meta.Terms == len(df) && (w == 1 || w == 2 || w == 4) {
			for i := 0; i < len(df); i += w {
				v := uint64(0)
				for j := w - 1; j >= 0; j-- {
					v = v<<8 | uint64(df[i+j])
				}
				p.meta.Pairs += int(v)
			}
		}
		loaded, err := openBytesIn(t, dir, p.encode(t))
		if err != nil {
			return
		}
		if err := loaded.AddTerms("zzz", textutil.BagOf([]string{"t00001"})); err != nil {
			return // "zzz" may be an ID the input holds
		}
		want := make([][]Hit, len(p.terms))
		for i, term := range p.terms {
			want[i] = loaded.SearchTerms([]string{term}, 5)
		}
		var out bytes.Buffer
		if err := loaded.Freeze().Save(&out); err != nil {
			t.Fatalf("re-save of parsed snapshot failed: %v", err)
		}
		again, err := openBytesIn(t, dir, out.Bytes())
		if err != nil {
			t.Fatalf("re-sealed segment does not open: %v", err)
		}
		for i, term := range p.terms {
			if got := again.SearchTerms([]string{term}, 5); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("term %s: %v after the re-seal, %v before", term, got, want[i])
			}
		}
	})
}
