package verify

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/table"
)

// TestRelevanceErrorInjection: on unrelated evidence the LLM verifier
// hallucinate a relationship at exactly the configured rate, split between
// Verified and Refuted.
func TestRelevanceErrorInjection(t *testing.T) {
	cfg := LLMConfig{Seed: 21, RelevanceErr: 0.2}
	v := NewLLMVerifier(cfg)
	foreign := table.New("f", "an entirely different relation", []string{"a", "b"})
	foreign.MustAppendRow("x", "y")

	const n = 4000
	var hallucinated, verified int
	for i := 0; i < n; i++ {
		cl := claims.Claim{
			Context:   "some other caption",
			Entities:  []string{"ghost"},
			Attribute: "a",
			Op:        claims.OpLookup,
			Value:     "v",
		}
		cl.Render()
		g := NewClaimObject(fmt.Sprintf("r%d", i), cl)
		res, err := v.Verify(g, tableInst(foreign))
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != NotRelated {
			hallucinated++
			if res.Verdict == Verified {
				verified++
			}
		}
	}
	rate := float64(hallucinated) / n
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("hallucination rate = %v, want ~0.2", rate)
	}
	// Roughly half of hallucinations go each way.
	split := float64(verified) / float64(hallucinated)
	if math.Abs(split-0.5) > 0.08 {
		t.Errorf("hallucination split = %v, want ~0.5", split)
	}
}

// TestTupleRelevanceErrSeparateFromClaim: tuple objects use the tuple
// relevance knob, claim objects the generic one.
func TestTupleRelevanceErrSeparateFromClaim(t *testing.T) {
	cfg := LLMConfig{Seed: 22, RelevanceErr: 0, TupleRelevanceErr: 0.3}
	v := NewLLMVerifier(cfg)
	foreign := table.New("f", "another caption entirely", []string{"k", "m"})
	foreign.MustAppendRow("other entity", "1")

	const n = 3000
	flips := 0
	for i := 0; i < n; i++ {
		// Fresh tuple objects against unrelated evidence.
		tbl := table.New(fmt.Sprintf("q%d", i), "query caption", []string{"k", "m"})
		tbl.MustAppendRow("entity", "5")
		tp, _ := tbl.TupleAt(0)
		g := NewTupleObject(fmt.Sprintf("t%d", i), tp, "m")
		res, err := v.Verify(g, tupleInst(foreign, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != NotRelated {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-0.3) > 0.025 {
		t.Errorf("tuple relevance error = %v, want ~0.3", rate)
	}

	// Claim objects against unrelated evidence never flip (RelevanceErr=0).
	for i := 0; i < 200; i++ {
		cl := claims.Claim{Context: "no such table", Entities: []string{"g"}, Attribute: "m", Op: claims.OpLookup, Value: "1"}
		cl.Render()
		g := NewClaimObject(fmt.Sprintf("c%d", i), cl)
		res, err := v.Verify(g, tableInst(foreign))
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != NotRelated {
			t.Fatalf("claim object flipped with RelevanceErr=0")
		}
	}
}

// TestCorruptionFlipsBothDirections: misreadings flip Verified→Refuted and
// Refuted→Verified.
func TestCorruptionFlipsBothDirections(t *testing.T) {
	cfg := LLMConfig{Seed: 23, TupleEvidenceErr: 1} // always misread
	v := NewLLMVerifier(cfg)
	tbl := usOpen1954()

	res, err := v.Verify(imputedTuple("570"), tupleInst(tbl, 1)) // truth: Verified
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Refuted {
		t.Errorf("always-misread on Verified pair = %v", res.Verdict)
	}
	res, err = v.Verify(imputedTuple("999"), tupleInst(tbl, 1)) // truth: Refuted
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Verified {
		t.Errorf("always-misread on Refuted pair = %v", res.Verdict)
	}
}

// TestErrRateRouting: the per-pair-class error selection picks the right
// knob for each claim operation.
func TestErrRateRouting(t *testing.T) {
	cfg := LLMConfig{
		Seed: 24, LookupClaimErr: 0.1, AggClaimErr: 0.2, CountClaimErr: 0.3,
		TextEvidenceErr: 0.4, TupleEvidenceErr: 0.5,
	}
	v := NewLLMVerifier(cfg)
	mk := func(op claims.AggOp) Generated {
		return NewClaimObject("x", claims.Claim{Op: op})
	}
	inst := datalake.Instance{Kind: datalake.KindTable}
	if got := v.errRateFor(mk(claims.OpLookup), inst); got != 0.1 {
		t.Errorf("lookup err = %v", got)
	}
	if got := v.errRateFor(mk(claims.OpSum), inst); got != 0.2 {
		t.Errorf("sum err = %v", got)
	}
	if got := v.errRateFor(mk(claims.OpCount), inst); got != 0.3 {
		t.Errorf("count err = %v", got)
	}
	if got := v.errRateFor(mk(claims.OpLookup), datalake.Instance{Kind: datalake.KindText}); got != 0.4 {
		t.Errorf("text evidence err = %v", got)
	}
	tbl := usOpen1954()
	tp, _ := tbl.TupleAt(0)
	tg := NewTupleObject("y", tp, "money")
	if got := v.errRateFor(tg, datalake.Instance{Kind: datalake.KindTuple}); got != 0.5 {
		t.Errorf("tuple evidence err = %v", got)
	}
}

// TestOneRowTableView: claim machinery over a single evidence tuple sees
// the tuple's caption and values.
func TestOneRowTableView(t *testing.T) {
	tbl := usOpen1954()
	inst := tupleInst(tbl, 1)
	view := oneRowTable(inst)
	if view.Caption != tbl.Caption || view.NumRows() != 1 {
		t.Errorf("one-row view = %+v", view)
	}
	if v := view.Rows[0][1]; v != "tommy bolt" {
		t.Errorf("view cell = %q", v)
	}
	// Mutating the view must not touch the lake tuple.
	view.Rows[0][1] = "mutated"
	if tbl.Rows[1][1] != "tommy bolt" {
		t.Error("one-row view shares storage")
	}
}
