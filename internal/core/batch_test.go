package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/table"
	"repro/internal/verify"
)

func TestVerifyBatchMatchesSequential(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	e1, _ := lake.Table("e1")

	var objects []verify.Generated
	for row := 0; row < e1.NumRows(); row++ {
		tp, _ := e1.TupleAt(row)
		objects = append(objects, verify.NewTupleObject(fmt.Sprintf("b%d", row), tp, "money"))
	}
	objects = append(objects, golfClaimObject())

	seq := make([]Report, len(objects))
	for i, g := range objects {
		rep, err := p.Verify(g, datalake.KindTuple, datalake.KindTable)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = rep
	}

	par, err := p.VerifyBatch(objects, 4, datalake.KindTuple, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("batch returned %d reports", len(par))
	}
	for i := range seq {
		if par[i].Verdict != seq[i].Verdict {
			t.Errorf("object %d: batch %v vs sequential %v", i, par[i].Verdict, seq[i].Verdict)
		}
		if len(par[i].Evidence) != len(seq[i].Evidence) {
			t.Errorf("object %d: evidence counts differ", i)
		}
	}
}

func TestVerifyBatchEdgeCases(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)

	// Empty input.
	if reps, err := p.VerifyBatch(nil, 4); reps != nil || err != nil {
		t.Errorf("empty batch = %v, %v", reps, err)
	}
	// parallelism < 1 degrades to sequential.
	reps, err := p.VerifyBatch([]verify.Generated{golfClaimObject()}, 0, datalake.KindTable)
	if err != nil || len(reps) != 1 || reps[0].Verdict != verify.Refuted {
		t.Errorf("sequential fallback = %v, %v", reps, err)
	}
}

// TestVerifyBatchPropagatesErrors: a verifier error fails the batch, and
// with two failing objects in flight at once the error names the lower
// index, as a sequential run would, whichever fails first.
func TestVerifyBatchPropagatesErrors(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	badAgent := verify.NewAgent(failingVerifier{})
	bp, err := NewPipeline(lake, p.Indexer(), p.rerankers, badAgent, nil, nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var objects []verify.Generated
	for i := 0; i < 6; i++ {
		c := claims.Claim{
			Context:   "1954 u.s. open (golf)",
			Entities:  []string{"tommy bolt"},
			Attribute: "money",
			Op:        claims.OpLookup,
			Value:     fmt.Sprintf("%d", 500+i),
		}
		c.Render()
		id := fmt.Sprintf("ok%d", i)
		if i == 1 || i == 2 {
			id = fmt.Sprintf("fail%d", i)
		}
		objects = append(objects, verify.NewClaimObject(id, c))
	}
	_, err = bp.VerifyBatch(objects, 4, datalake.KindTable)
	if err == nil {
		t.Fatal("batch swallowed verifier error")
	}
	if want := "object 1 (fail1)"; !strings.Contains(err.Error(), want) {
		t.Errorf("batch error %q does not name %s", err, want)
	}
}

// failingVerifier errors for every object whose ID starts with "fail",
// for error-path tests.
type failingVerifier struct{}

func (failingVerifier) Name() string                                  { return "failing" }
func (failingVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (failingVerifier) Verify(g verify.Generated, _ datalake.Instance) (verify.Result, error) {
	if strings.HasPrefix(g.ID, "fail") {
		return verify.Result{}, fmt.Errorf("synthetic failure")
	}
	return verify.Result{}, nil
}

func TestVerifyBatchLargeParallel(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake, true)
	var objects []verify.Generated
	for i := 0; i < 40; i++ {
		c := claims.Claim{
			Context:   "1954 u.s. open (golf)",
			Entities:  []string{"tommy bolt"},
			Attribute: "money",
			Op:        claims.OpLookup,
			Value:     fmt.Sprintf("%d", 500+i),
		}
		c.Render()
		objects = append(objects, verify.NewClaimObject(fmt.Sprintf("c%d", i), c))
	}
	reps, err := p.VerifyBatch(objects, 8, datalake.KindTable)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		want := verify.Refuted
		if 500+i == 570 {
			want = verify.Verified
		}
		if rep.Verdict != want {
			t.Errorf("claim %d verdict = %v, want %v", i, rep.Verdict, want)
		}
	}
	// Provenance recorded every run exactly once.
	if got := p.Provenance().Len(); got != len(objects) {
		t.Errorf("provenance records = %d, want %d", got, len(objects))
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
