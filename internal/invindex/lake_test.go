package invindex

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/textutil"
	"repro/internal/workload"
)

// workloadLake is the default workload lake as the indexer's table and
// tuple BM25 shards hold it (one shard each, analyzed as core analyzes an
// instance), plus 1,000 queries of the benchmark's kinds: 500 claim texts
// and 500 masked tuples.
type workloadLake struct {
	docs    map[string][]lakeDoc
	queries []string
}

type lakeDoc struct {
	id    string
	terms []string
}

var lakeShards = sync.OnceValues(func() (workloadLake, error) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		return workloadLake{}, err
	}
	docs := map[string][]lakeDoc{}
	for _, tbl := range corpus.Tables {
		docs["table"] = append(docs["table"], lakeDoc{datalake.TableInstanceID(tbl.ID), textutil.TokenizeFiltered(tbl.SerializeForIndex())})
		for row := range tbl.Rows {
			tp, _ := tbl.TupleAt(row)
			docs["tuple"] = append(docs["tuple"], lakeDoc{datalake.TupleInstanceID(tbl.ID, row), textutil.TokenizeFiltered(tp.SerializeForIndex())})
		}
	}
	claimTasks, err := corpus.ClaimTasks(500)
	if err != nil {
		return workloadLake{}, err
	}
	tupleTasks, err := corpus.TupleTasks(500)
	if err != nil {
		return workloadLake{}, err
	}
	var queries []string
	for _, ct := range claimTasks {
		queries = append(queries, ct.Claim.Text)
	}
	for _, tt := range tupleTasks {
		queries = append(queries, tt.MaskedTuple().SerializeForIndex())
	}
	return workloadLake{docs, queries}, nil
})

func lakeIndex(t *testing.T, docs []lakeDoc) *Index {
	t.Helper()
	ix := New()
	for _, d := range docs {
		if err := ix.AddTerms(d.id, d.terms); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestPackedPostingsSize holds the sealed table shard of the workload
// lake to at most 1.5 bytes a pair for its postings and their offsets
// (8 as int32 pairs), so a return to a plain layout fails here and not
// only in the benchmark.
func TestPackedPostingsSize(t *testing.T) {
	lake, err := lakeShards()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"table", "tuple"} {
		var buf bytes.Buffer
		if err := lakeIndex(t, lake.docs[kind]).Freeze().Save(&buf); err != nil {
			t.Fatal(err)
		}
		fr, err := binfmt.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var meta staticMeta
		if err := fr.JSON("meta", &meta); err != nil {
			t.Fatal(err)
		}
		var size int
		for _, name := range []string{"postings", "postoff"} {
			b, err := fr.Bytes(name)
			if err != nil {
				t.Fatal(err)
			}
			size += len(b)
		}
		perPair := float64(size) / float64(meta.Pairs)
		t.Logf("%s shard: %d docs, %d terms, %d pairs; postings + postoff %d B = %.3f B a pair; segment %d B",
			kind, meta.Docs, meta.Terms, meta.Pairs, size, perPair, buf.Len())
		if kind == "table" && perPair > 1.5 {
			t.Errorf("table shard postings cost %.3f B a pair, want <= 1.5", perPair)
		}
	}
}

// TestWorkloadLakeSealDifferential runs 1,000 workload queries against the
// lake's table and tuple shards three ways — never sealed, sealed on the
// heap, and sealed, saved, reopened with OpenFile and adopted — and holds
// every hit list, scores included, equal across all of them.
func TestWorkloadLakeSealDifferential(t *testing.T) {
	lake, err := lakeShards()
	if err != nil {
		t.Fatal(err)
	}
	queries := lake.queries
	for _, kind := range []string{"table", "tuple"} {
		ref, ix := lakeIndex(t, lake.docs[kind]), lakeIndex(t, lake.docs[kind])
		terms := make([][]string, len(queries))
		want := make([][]Hit, len(queries))
		for i, q := range queries {
			terms[i] = ref.Analyze(q)
			want[i] = ref.SearchTerms(terms[i], 100)
		}
		check := func(stage string, got *Index) {
			t.Helper()
			for i := range queries {
				if hits := got.SearchTerms(terms[i], 100); !reflect.DeepEqual(hits, want[i]) {
					t.Fatalf("%s shard, %s, query %q:\n got  %v\n want %v", kind, stage, queries[i], hits, want[i])
				}
			}
		}
		z := ix.Freeze()
		check("sealed", ix)
		path := filepath.Join(t.TempDir(), "bm25-"+kind+".idx")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check("opened", opened)
		if err := z.Adopt(path); err != nil {
			t.Fatal(err)
		}
		check("adopted", ix)
	}
}
