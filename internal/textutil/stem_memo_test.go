package textutil_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/textutil"
	"repro/internal/workload"
)

// corpusVocabulary returns the distinct tokens of a generated lake's
// serialized tables, tuples, documents and triples — what ingest stems.
func corpusVocabulary(t *testing.T) []string {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 300, 150
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	seen := make(map[string]struct{})
	add := func(text string) {
		for _, tok := range textutil.Tokenize(text) {
			seen[tok] = struct{}{}
		}
	}
	for _, id := range corpus.Lake.TableIDs() {
		tb, _ := corpus.Lake.Table(id)
		add(tb.SerializeForIndex())
	}
	for _, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		add(d.SerializeForIndex())
	}
	for _, tr := range corpus.Lake.Triples() {
		add(tr.Subject + " " + tr.Predicate + " " + tr.Object)
	}
	// Shapes the synthetic corpus is short of: non-ASCII endings, digits
	// after letters, words that only step 1c or 5b touches.
	add("café naïve 1950s b2b señor zürich sky happy controll 42nd über")
	vocab := make([]string, 0, len(seen))
	for w := range seen {
		vocab = append(vocab, w)
	}
	return vocab
}

// TestStemMemoMatchesPorter: the memoized Stem returns what the bare
// algorithm returns for every word of the corpus vocabulary, with callers
// racing on the memo (run under -race) — cold, warm and while shards are
// being dropped and refilled.
func TestStemMemoMatchesPorter(t *testing.T) {
	vocab := corpusVocabulary(t)
	if len(vocab) < 500 {
		t.Fatalf("vocabulary of %d words is too small to mean anything", len(vocab))
	}
	want := make(map[string]string, len(vocab))
	for _, w := range vocab {
		want[w] = textutil.Porter(w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				// Each goroutine walks the vocabulary from its own offset, so
				// first sightings of a word collide across goroutines.
				for i := range vocab {
					w := vocab[(i+g*len(vocab)/8)%len(vocab)]
					if got := textutil.Stem(w); got != want[w] {
						t.Errorf("Stem(%q) = %q, unmemoized %q", w, got, want[w])
						return
					}
				}
				if g == 0 {
					// Churn: enough fresh words to overflow every shard, so the
					// others' lookups straddle shards being dropped.
					for i := 0; i < 2*textutil.StemMemoEntries; i++ {
						w := fmt.Sprintf("w%dfillers", i)
						if got, ref := textutil.Stem(w), textutil.Porter(w); got != ref {
							t.Errorf("Stem(%q) = %q, unmemoized %q", w, got, ref)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := textutil.StemMemoLen(); n > textutil.StemMemoEntries {
		t.Errorf("memo holds %d words, cap is %d", n, textutil.StemMemoEntries)
	}
}
