package invindex

import (
	"fmt"
	"sync"
	"testing"
)

// TestChurnCompaction drives delete/re-add far past the compaction
// threshold: live documents must stay searchable with correct scores
// throughout.
func TestChurnCompaction(t *testing.T) {
	ix := New()
	for i := 0; i < 30; i++ {
		if err := ix.Add(fmt.Sprintf("seed%d", i), fmt.Sprintf("seed document %d about golf and topic%d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 300; cycle++ {
		if !ix.Delete("seed7") {
			t.Fatalf("cycle %d: Delete(seed7) = false", cycle)
		}
		if err := ix.Add("seed7", "seed document 7 about golf and topic7"); err != nil {
			t.Fatalf("cycle %d: re-add: %v", cycle, err)
		}
	}
	if got := ix.Len(); got != 30 {
		t.Fatalf("Len = %d after churn, want 30", got)
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("seed%d", i)
		hits := ix.Search(fmt.Sprintf("topic%d", i), 3)
		if len(hits) == 0 || hits[0].ID != id {
			t.Fatalf("%s not top hit for its unique term after churn: %v", id, hits)
		}
	}
}

// TestConcurrentAddSearchDelete hammers the BM25 index with concurrent
// writers, a deleter, and searchers; run under -race it proves the locking
// discipline, and the final state must account for every live document.
func TestConcurrentAddSearchDelete(t *testing.T) {
	const (
		writers   = 4
		perWriter = 100
	)
	ix := New()
	for i := 0; i < 10; i++ {
		if err := ix.Add(fmt.Sprintf("seed%d", i), fmt.Sprintf("seed document number %d about golf", i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ix.Search("document about golf", 5)
					ix.Contains("seed1")
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			ix.Delete(fmt.Sprintf("seed%d", i))
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				text := fmt.Sprintf("writer %d wrote document %d mentioning tennis and golf", w, i)
				if err := ix.Add(id, text); err != nil {
					t.Errorf("add %s: %v", id, err)
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	if got := ix.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d live documents", got, writers*perWriter)
	}
	hits := ix.Search("writer wrote tennis", 3)
	if len(hits) == 0 {
		t.Fatal("no hits over concurrently built index")
	}
	if !ix.Contains("w3-42") {
		t.Fatal("concurrently added document missing")
	}
}
