package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/par"
	"repro/internal/table"
	"repro/internal/verify"
)

// verifyItem is one object of a concurrent-verify test and the kinds it
// is verified against.
type verifyItem struct {
	g     verify.Generated
	kinds []datalake.Kind
}

// verifyConcurrently verifies items from 8 goroutines at once through
// VerifyCtx, the way a library caller or the server's requests run them,
// and fails the test on any error.
func verifyConcurrently(t *testing.T, p *Pipeline, items []verifyItem) []Report {
	t.Helper()
	got := make([]Report, len(items))
	errs := make([]error, len(items))
	par.For(len(items), 8, func(i int) {
		got[i], errs[i] = p.VerifyCtx(context.Background(), items[i].g, items[i].kinds...)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
	}
	return got
}

// TestVerifyBatchMatchesSequential: a batch of verifies run from many
// goroutines at once gives the verdicts and evidence a sequential run
// gives, and each writes exactly one lineage record.
func TestVerifyBatchMatchesSequential(t *testing.T) {
	lake := smallLake(t)
	e1, _ := lake.Table("e1")
	kinds := []datalake.Kind{datalake.KindTuple, datalake.KindTable}
	var items []verifyItem
	for row := 0; row < e1.NumRows(); row++ {
		tp, _ := e1.TupleAt(row)
		items = append(items, verifyItem{verify.NewTupleObject(fmt.Sprintf("b%d", row), tp, "money"), kinds})
	}
	items = append(items, verifyItem{golfClaimObject(), kinds})

	seq := buildPipeline(t, lake, true)
	want := make([]Report, len(items))
	for i, it := range items {
		rep, err := seq.Verify(it.g, it.kinds...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	p := buildPipeline(t, lake, true)
	got := verifyConcurrently(t, p, items)
	for i := range items {
		if got[i].Verdict != want[i].Verdict {
			t.Errorf("object %d: concurrent %v vs sequential %v", i, got[i].Verdict, want[i].Verdict)
		}
		if len(got[i].Evidence) != len(want[i].Evidence) {
			t.Fatalf("object %d: %d evidence vs %d", i, len(got[i].Evidence), len(want[i].Evidence))
		}
		for j := range want[i].Evidence {
			if got[i].Evidence[j].Instance.ID != want[i].Evidence[j].Instance.ID {
				t.Errorf("object %d evidence %d: %s vs %s", i, j, got[i].Evidence[j].Instance.ID, want[i].Evidence[j].Instance.ID)
			}
		}
		if n := len(p.Provenance().ByObject(items[i].g.ID)); n != 1 {
			t.Errorf("object %d (%s): %d lineage records, want 1", i, items[i].g.ID, n)
		}
	}
}

// TestVerifyBatchLargeParallel: 40 claim verifies run from 8 goroutines
// at once each get their own verdict, and provenance records every run
// exactly once.
func TestVerifyBatchLargeParallel(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	var items []verifyItem
	for i := 0; i < 40; i++ {
		c := claims.Claim{
			Context:   "1954 u.s. open (golf)",
			Entities:  []string{"tommy bolt"},
			Attribute: "money",
			Op:        claims.OpLookup,
			Value:     fmt.Sprintf("%d", 500+i),
		}
		c.Render()
		items = append(items, verifyItem{verify.NewClaimObject(fmt.Sprintf("c%d", i), c), []datalake.Kind{datalake.KindTable}})
	}
	reps := verifyConcurrently(t, p, items)
	for i, rep := range reps {
		want := verify.Refuted
		if 500+i == 570 {
			want = verify.Verified
		}
		if rep.Verdict != want {
			t.Errorf("claim %d verdict = %v, want %v", i, rep.Verdict, want)
		}
	}
	if got := p.Provenance().Len(); got != len(items) {
		t.Errorf("provenance records = %d, want %d", got, len(items))
	}
}

// TestRaggedTableRejected: a table with a row shorter than its header is
// rejected in its batch result, by AddBatch and AddTable alike, before any
// prepare stage reads it, and the rest of the batch commits. A row wider
// than its header is accepted: its extra cells are indexed with the
// table, not with the row's tuple.
func TestRaggedTableRejected(t *testing.T) {
	lake := datalake.New()
	defer lake.Close()
	ix, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	short := &table.Table{ID: "short", Caption: "c", Columns: []string{"a", "b"}, Rows: [][]string{{"x", "y"}, {"z"}}}
	wide := &table.Table{ID: "wide", Caption: "c", Columns: []string{"a"}, Rows: [][]string{{"x", "extra"}}}
	res, err := lake.AddBatch([]datalake.BatchItem{{Table: short}, {Table: wide}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Version != 0 {
		t.Errorf("short row: result %+v, want a rejection", res[0])
	}
	if res[1].Err != nil {
		t.Errorf("wide row: %v", res[1].Err)
	}
	if err := lake.AddTable(short); err == nil {
		t.Error("AddTable accepted a row shorter than its header")
	}
	if _, ok := lake.Table("short"); ok {
		t.Error("the rejected table is in the lake")
	}
	if hits := ix.bm25[datalake.KindTable].Search("extra", 10); len(hits) != 1 || hits[0].ID != datalake.TableInstanceID("wide") {
		t.Errorf("table hits for a cell beyond the header: %+v", hits)
	}
	if hits := ix.bm25[datalake.KindTuple].Search("extra", 10); len(hits) != 0 {
		t.Errorf("tuple hits for a cell beyond the header: %+v", hits)
	}
}
