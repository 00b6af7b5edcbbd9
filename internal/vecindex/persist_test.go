package vecindex

import (
	"fmt"
	"testing"
	"testing/quick"
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
