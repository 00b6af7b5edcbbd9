package vecindex

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/embed"
)

// TestSQFlatSaveOpenProperty: whatever rows went in, the file Save wrote
// opens to an index that answers as the one that wrote it.
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
		path, _ := writeSnapshotFile(t, ix.Freeze().Save)
		loaded, err := OpenSQFile(path)
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
			path, _ := writeSnapshotFile(t, ix.Freeze().Save)
			loaded, err := OpenIVFFile(path)
			if err != nil {
				t.Fatalf("OpenIVFFile: %v", err)
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
	path, _ := writeSnapshotFile(t, ix.Freeze().Save)
	loaded, err := OpenLSHFile(path)
	if err != nil {
		t.Fatalf("OpenLSHFile: %v", err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("Len drifted: %d vs %d", loaded.Len(), ix.Len())
	}
	searchesAgree(t, ix, loaded, randomVectors(10, 8, 99), 7)
}
