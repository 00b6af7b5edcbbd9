package vecindex

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/embed"
)

const liveDim = 32

func liveVec(i int) embed.Vector {
	emb := embed.NewEmbedder(liveDim, 7)
	return emb.EmbedText(fmt.Sprintf("document %d about topic %d", i, i%11))
}

// liveIndexes returns one fresh index per mutable type, keyed by the
// subtest name, each holding pretrain seed rows.
func liveIndexes(t *testing.T, pretrain int) map[string]*SQFlat {
	t.Helper()
	out := map[string]*SQFlat{
		"sqflat": NewSQFlat(liveDim),
	}
	for name, ix := range out {
		for i := 0; i < pretrain; i++ {
			if err := ix.Add(fmt.Sprintf("seed%d", i), liveVec(i)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	return out
}

func hasID(hits []Hit, id string) bool {
	for _, h := range hits {
		if h.ID == id {
			return true
		}
	}
	return false
}

// TestRemoveAndReadd checks the live mutation contract on every mutable
// index type: removed vectors disappear from results, removal is
// idempotent, and a removed id can be indexed again.
func TestRemoveAndReadd(t *testing.T) {
	for name, ix := range liveIndexes(t, 20) {
		t.Run(name, func(t *testing.T) {
			v := liveVec(3)
			if hits := ix.Search(v, 5); !hasID(hits, "seed3") {
				t.Fatalf("seed3 not retrievable before removal: %v", hits)
			}
			if !ix.Remove("seed3") {
				t.Fatal("Remove(seed3) = false, want true")
			}
			if ix.Remove("seed3") {
				t.Fatal("second Remove(seed3) = true, want false")
			}
			if ix.Remove("nope") {
				t.Fatal("Remove(nope) = true, want false")
			}
			if got := ix.Len(); got != 19 {
				t.Fatalf("Len = %d after removal, want 19", got)
			}
			if hits := ix.Search(v, 20); hasID(hits, "seed3") {
				t.Fatalf("seed3 still retrieved after removal: %v", hits)
			}
			// Re-add under the same id with different content.
			if err := ix.Add("seed3", liveVec(100)); err != nil {
				t.Fatalf("re-add: %v", err)
			}
			if err := ix.Add("seed3", liveVec(100)); err == nil {
				t.Fatal("duplicate live add succeeded, want error")
			}
			if hits := ix.Search(liveVec(100), 5); !hasID(hits, "seed3") {
				t.Fatalf("re-added seed3 not retrievable: %v", hits)
			}
		})
	}
}

// TestChurnCompaction drives the remove/re-add cycle far past the
// compaction threshold on every mutable index type: the live set must stay
// intact and searchable throughout (this is the hot path of live KG entity
// re-indexing).
func TestChurnCompaction(t *testing.T) {
	for name, ix := range liveIndexes(t, 30) {
		t.Run(name, func(t *testing.T) {
			// 300 churn cycles on one id → ~300 tombstones, several
			// compactions under the dead > live && dead >= 64 policy.
			for cycle := 0; cycle < 300; cycle++ {
				if !ix.Remove("seed7") {
					t.Fatalf("cycle %d: Remove(seed7) = false", cycle)
				}
				if err := ix.Add("seed7", liveVec(7)); err != nil {
					t.Fatalf("cycle %d: re-add: %v", cycle, err)
				}
			}
			if got := ix.Len(); got != 30 {
				t.Fatalf("Len = %d after churn, want 30", got)
			}
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("seed%d", i)
				if hits := ix.Search(liveVec(i), 30); !hasID(hits, id) {
					t.Fatalf("%s lost after churn compaction: %v", id, hits)
				}
			}
		})
	}
}

// TestConcurrentAddSearch hammers each mutable index type with concurrent
// writers, removers, and searchers; run under -race it proves the locking
// discipline, and the final state must account for every live vector.
func TestConcurrentAddSearch(t *testing.T) {
	const (
		writers   = 4
		perWriter = 50
	)
	for name, ix := range liveIndexes(t, 10) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Searchers run until writers finish.
			for s := 0; s < 2; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					q := liveVec(s)
					for {
						select {
						case <-stop:
							return
						default:
							ix.Search(q, 5)
						}
					}
				}(s)
			}
			// One remover churns the seed ids.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					ix.Remove(fmt.Sprintf("seed%d", i))
				}
			}()
			var writerWg sync.WaitGroup
			for w := 0; w < writers; w++ {
				writerWg.Add(1)
				go func(w int) {
					defer writerWg.Done()
					for i := 0; i < perWriter; i++ {
						id := fmt.Sprintf("w%d-%d", w, i)
						if err := ix.Add(id, liveVec(w*1000+i)); err != nil {
							t.Errorf("add %s: %v", id, err)
						}
					}
				}(w)
			}
			writerWg.Wait()
			close(stop)
			wg.Wait()
			if got := ix.Len(); got != writers*perWriter {
				t.Fatalf("Len = %d, want %d live vectors", got, writers*perWriter)
			}
			if hits := ix.Search(liveVec(2*1000+7), 10); !hasID(hits, "w2-7") {
				t.Fatalf("concurrently added vector not retrievable: %v", hits)
			}
		})
	}
}
