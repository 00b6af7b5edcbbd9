package vecindex

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/embed"
)

func TestFlatSaveLoadRoundtrip(t *testing.T) {
	vecs := randomVectors(100, 8, 31)
	f := NewFlat(8, Cosine)
	for i, v := range vecs {
		if err := f.Add(fmt.Sprintf("v%03d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Freeze().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadFlat(&buf)
	if err != nil {
		t.Fatalf("LoadFlat: %v", err)
	}
	if loaded.Len() != f.Len() {
		t.Fatalf("Len drifted: %d vs %d", loaded.Len(), f.Len())
	}
	for _, q := range randomVectors(10, 8, 99) {
		a, b := f.Search(q, 5), loaded.Search(q, 5)
		if len(a) != len(b) {
			t.Fatalf("hit counts differ")
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Errorf("hit %d drifted: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

func TestFlatSaveLoadProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%40) + 1
		vecs := randomVectors(count, 4, seed)
		ix := NewFlat(4, L2)
		for i, v := range vecs {
			if err := ix.Add(fmt.Sprintf("v%d", i), v); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := ix.Freeze().Save(&buf); err != nil {
			return false
		}
		loaded, err := LoadFlat(&buf)
		if err != nil {
			return false
		}
		q := vecs[0]
		a, b := ix.Search(q, 3), loaded.Search(q, 3)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLoadFlatMalformed(t *testing.T) {
	if _, err := LoadFlat(bytes.NewBufferString("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
}

// searchesAgree fails the test when the two indexes rank any of the given
// queries differently.
func searchesAgree(t *testing.T, a, b Searcher, queries []embed.Vector, k int) {
	t.Helper()
	for qi, q := range queries {
		ha, hb := a.Search(q, k), b.Search(q, k)
		if len(ha) != len(hb) {
			t.Fatalf("query %d: hit counts differ (%d vs %d)", qi, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Errorf("query %d hit %d drifted: %+v vs %+v", qi, i, ha[i], hb[i])
			}
		}
	}
}

func TestIVFSaveLoadRoundtrip(t *testing.T) {
	for _, trained := range []bool{false, true} {
		t.Run(fmt.Sprintf("trained=%v", trained), func(t *testing.T) {
			vecs := randomVectors(120, 8, 7)
			ix := NewIVF(8, Cosine, 8, 3, 42)
			for i, v := range vecs {
				if err := ix.Add(fmt.Sprintf("v%03d", i), v); err != nil {
					t.Fatal(err)
				}
			}
			if trained {
				ix.Train()
				// Post-train adds and a removal exercise the incremental
				// cell assignment and tombstone paths.
				for i, v := range randomVectors(10, 8, 8) {
					if err := ix.Add(fmt.Sprintf("post%02d", i), v); err != nil {
						t.Fatal(err)
					}
				}
				ix.Remove("v005")
			}
			var buf bytes.Buffer
			if err := ix.Freeze().Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			loaded, err := LoadIVF(&buf)
			if err != nil {
				t.Fatalf("LoadIVF: %v", err)
			}
			if loaded.Len() != ix.Len() {
				t.Fatalf("Len drifted: %d vs %d", loaded.Len(), ix.Len())
			}
			if loaded.Trained() != ix.Trained() {
				t.Fatalf("Trained drifted: %v vs %v", loaded.Trained(), ix.Trained())
			}
			searchesAgree(t, ix, loaded, randomVectors(10, 8, 99), 7)

			// The loaded index keeps working: post-load adds land in cells.
			if err := loaded.Add("new", randomVectors(1, 8, 5)[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLSHSaveLoadRoundtrip(t *testing.T) {
	vecs := randomVectors(80, 8, 11)
	ix := NewLSH(8, 12, 4, 42)
	for i, v := range vecs {
		if err := ix.Add(fmt.Sprintf("v%03d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	ix.Remove("v010")
	var buf bytes.Buffer
	if err := ix.Freeze().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadLSH(&buf)
	if err != nil {
		t.Fatalf("LoadLSH: %v", err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("Len drifted: %d vs %d", loaded.Len(), ix.Len())
	}
	searchesAgree(t, ix, loaded, randomVectors(10, 8, 99), 7)
}

func TestLoadIVFLSHMalformed(t *testing.T) {
	if _, err := LoadIVF(bytes.NewBufferString("junk")); err == nil {
		t.Error("junk IVF snapshot accepted")
	}
	if _, err := LoadLSH(bytes.NewBufferString("junk")); err == nil {
		t.Error("junk LSH snapshot accepted")
	}
}
