package invindex

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Index {
	t.Helper()
	ix := New()
	docs := map[string]string{
		"d1": "the quick brown fox jumps over the lazy dog",
		"d2": "golf tournament in springfield with record prize money",
		"d3": "the golf open championship prize",
		"d4": "congressional district election results",
		"d5": "fox hunting season opens in springfield",
	}
	for id, text := range docs {
		if err := ix.Add(id, text); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	return ix
}

func TestAddAndLen(t *testing.T) {
	ix := buildSmall(t)
	if ix.Len() != 5 {
		t.Errorf("Len = %d", ix.Len())
	}
	if !ix.Contains("d1") || ix.Contains("nope") {
		t.Error("Contains wrong")
	}
}

func TestAddDuplicate(t *testing.T) {
	ix := New()
	if err := ix.Add("d1", "text"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("d1", "other"); err == nil {
		t.Error("duplicate Add accepted")
	}
	// After deletion, the id can be reused.
	if !ix.Delete("d1") {
		t.Fatal("Delete failed")
	}
	if err := ix.Add("d1", "new text"); err != nil {
		t.Errorf("re-Add after delete: %v", err)
	}
}

func TestSearchRelevanceOrdering(t *testing.T) {
	ix := buildSmall(t)
	hits := ix.Search("golf prize", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	// d3 mentions both golf and prize in a short doc; it must beat docs
	// with only one of the terms.
	if hits[0].ID != "d3" {
		t.Errorf("top hit = %s, want d3 (hits %v)", hits[0].ID, hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by score")
		}
	}
}

func TestSearchTopKBound(t *testing.T) {
	ix := buildSmall(t)
	if got := ix.Search("the golf fox springfield", 2); len(got) != 2 {
		t.Errorf("k=2 returned %d hits", len(got))
	}
	if got := ix.Search("anything", 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := ix.Search("zzz unknown terms", 5); got != nil {
		t.Errorf("no-match query returned %v", got)
	}
	if got := ix.Search("", 5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix := New()
	if got := ix.Search("anything", 5); got != nil {
		t.Errorf("empty index returned %v", got)
	}
}

func TestDelete(t *testing.T) {
	ix := buildSmall(t)
	if !ix.Delete("d3") {
		t.Fatal("Delete(d3) = false")
	}
	if ix.Delete("d3") {
		t.Error("double Delete = true")
	}
	if ix.Delete("ghost") {
		t.Error("Delete(ghost) = true")
	}
	if ix.Len() != 4 {
		t.Errorf("Len after delete = %d", ix.Len())
	}
	for _, h := range ix.Search("golf prize", 10) {
		if h.ID == "d3" {
			t.Error("deleted doc still retrieved")
		}
	}
}

func TestIDFPreference(t *testing.T) {
	// A term appearing in one doc must outweigh a term appearing in many.
	ix := New()
	for i := 0; i < 20; i++ {
		if err := ix.Add(fmt.Sprintf("common-%d", i), "common filler words everywhere"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Add("rare", "common zebra"); err != nil {
		t.Fatal(err)
	}
	hits := ix.Search("zebra common", 3)
	if len(hits) == 0 || hits[0].ID != "rare" {
		t.Errorf("rare-term doc not first: %v", hits)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New()
	for _, id := range []string{"b", "a", "c"} {
		if err := ix.Add(id, "identical content here"); err != nil {
			t.Fatal(err)
		}
	}
	hits := ix.Search("identical content", 3)
	if len(hits) != 3 || hits[0].ID != "a" || hits[1].ID != "b" || hits[2].ID != "c" {
		t.Errorf("tie-break order = %v", hits)
	}
}

// TestScoreSumsTermContributions: a document's score is its per-term
// scores added in sorted term order, to the bit, whether the postings are
// in the delta or in a sealed segment.
func TestScoreSumsTermContributions(t *testing.T) {
	ix := buildSmall(t)
	terms := ix.Analyze("golf prize")
	if len(terms) != 2 || terms[0] > terms[1] {
		t.Fatalf("analyzed terms = %v, want two, sorted", terms)
	}
	for _, tier := range []string{"delta", "sealed"} {
		if tier == "sealed" {
			ix.Freeze()
		}
		scoreOf := func(terms ...string) float64 {
			t.Helper()
			for _, h := range ix.SearchTerms(terms, 10) {
				if h.ID == "d3" {
					return h.Score
				}
			}
			t.Fatalf("%s: d3 not retrieved by %v", tier, terms)
			return 0
		}
		a, b := scoreOf(terms[0]), scoreOf(terms[1])
		if a <= 0 || b <= 0 {
			t.Errorf("%s: non-positive term scores %v, %v", tier, a, b)
		}
		if got := scoreOf(terms...); got != a+b {
			t.Errorf("%s: score %v, want %v + %v", tier, got, a, b)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	ix := buildSmall(t)
	ix.Delete("d5") // tombstones must compact away
	var buf bytes.Buffer
	if err := ix.Freeze().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := openBytes(t, buf.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != 4 {
		t.Errorf("loaded Len = %d", loaded.Len())
	}
	if loaded.Contains("d5") {
		t.Error("tombstoned doc survived snapshot")
	}
	orig := ix.Search("golf prize", 5)
	got := loaded.Search("golf prize", 5)
	if len(orig) != len(got) {
		t.Fatalf("hit counts differ: %d vs %d", len(orig), len(got))
	}
	for i := range orig {
		if orig[i].ID != got[i].ID {
			t.Errorf("hit %d: %s vs %s", i, orig[i].ID, got[i].ID)
		}
		if diff := orig[i].Score - got[i].Score; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("hit %d score drift: %v vs %v", i, orig[i].Score, got[i].Score)
		}
	}
}

func TestSaveLoadProperty(t *testing.T) {
	// Any set of docs roundtrips with identical search results.
	f := func(texts []string) bool {
		ix := New()
		for i, txt := range texts {
			if err := ix.Add(fmt.Sprintf("doc-%d", i), txt); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := ix.Freeze().Save(&buf); err != nil {
			return false
		}
		loaded, err := openBytes(t, buf.Bytes())
		if err != nil {
			return false
		}
		if loaded.Len() != ix.Len() {
			return false
		}
		q := "doc content words"
		if len(texts) > 0 {
			q = texts[0]
		}
		a, b := ix.Search(q, 5), loaded.Search(q, 5)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentSearchDuringAdd(t *testing.T) {
	ix := New()
	for i := 0; i < 100; i++ {
		if err := ix.Add(fmt.Sprintf("seed-%d", i), "golf prize money tournament open"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = ix.Search("golf money", 5)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = ix.Add(fmt.Sprintf("w%d-%d", w, i), "more golf content from writers")
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 100+4*200 {
		t.Errorf("Len after concurrent adds = %d", ix.Len())
	}
}

func TestCustomAnalyzer(t *testing.T) {
	// A whitespace-only analyzer must keep stopwords searchable.
	ix := New(WithAnalyzer(strings.Fields))
	if err := ix.Add("d1", "the the the"); err != nil {
		t.Fatal(err)
	}
	if hits := ix.Search("the", 1); len(hits) != 1 {
		t.Errorf("custom analyzer: %v", hits)
	}
}

func TestBM25ParamOverride(t *testing.T) {
	// With b=0 there is no length normalization: a long doc repeating the
	// term more often must win.
	ix := New(WithBM25(1.2, 0))
	if err := ix.Add("long", strings.Repeat("golf ", 50)+strings.Repeat("filler ", 500)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("short", "golf"); err != nil {
		t.Fatal(err)
	}
	hits := ix.Search("golf", 2)
	if len(hits) != 2 || hits[0].ID != "long" {
		t.Errorf("b=0 ranking = %v", hits)
	}
}

func TestAddTermsMatchesAdd(t *testing.T) {
	// Indexing pre-analyzed terms (the pipelined ingest path) must rank
	// identically to indexing raw text, and enforce the same dup rule.
	raw := New()
	pre := New()
	docs := map[string]string{
		"d1": "tommy bolt recorded a money of 570 at the 1954 open",
		"d2": "ben hogan finished with a total of 287 in 1959",
		"d3": "the committee reviewed attendance and prize money records",
	}
	for id, text := range docs {
		if err := raw.Add(id, text); err != nil {
			t.Fatal(err)
		}
		if err := pre.AddTerms(id, pre.Analyze(text)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.AddTerms("d1", pre.Analyze("dup")); err == nil {
		t.Fatal("AddTerms accepted a duplicate id")
	}
	for _, q := range []string{"tommy bolt money", "prize money records", "ben hogan 287"} {
		a, b := raw.Search(q, 10), pre.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %q hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}
