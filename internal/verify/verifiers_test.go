package verify

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/table"
)

func TestLLMVerifierDeterministic(t *testing.T) {
	v1 := NewLLMVerifier(DefaultLLMConfig(5))
	v2 := NewLLMVerifier(DefaultLLMConfig(5))
	tbl := usOpen1954()
	g := imputedTuple("570")
	for row := 0; row < tbl.NumRows(); row++ {
		r1, err1 := v1.Verify(g, tupleInst(tbl, row))
		r2, err2 := v2.Verify(g, tupleInst(tbl, row))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Verdict != r2.Verdict {
			t.Fatal("LLM verifier not deterministic")
		}
	}
}

func TestLLMVerifierErrorRateCalibration(t *testing.T) {
	// Over many related (tuple, tuple) pairs, the disagreement with the
	// exact reasoner must match TupleEvidenceErr.
	cfg := DefaultLLMConfig(11)
	noisy := NewLLMVerifier(cfg)
	exact := NewExactVerifier()
	const n = 3000
	flips := 0
	for i := 0; i < n; i++ {
		tbl := table.New(fmt.Sprintf("t%d", i), "caption one", []string{"k", "v"})
		tbl.MustAppendRow("entity", "10")
		g := NewTupleObject(fmt.Sprintf("g%d", i), mustTuple(tbl, 0), "v")
		inst := tupleInst(tbl, 0)
		a, err := noisy.Verify(g, inst)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := exact.Verify(g, inst)
		if b.Verdict != Verified {
			t.Fatalf("exact verdict = %v", b.Verdict)
		}
		if a.Verdict != b.Verdict {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-cfg.TupleEvidenceErr) > 0.02 {
		t.Errorf("flip rate = %v, want ~%v", rate, cfg.TupleEvidenceErr)
	}
}

func mustTuple(t *table.Table, row int) table.Tuple {
	tp, ok := t.TupleAt(row)
	if !ok {
		panic("row out of range")
	}
	return tp
}

func TestLLMVerifierSupportsEverything(t *testing.T) {
	v := NewLLMVerifier(DefaultLLMConfig(1))
	g := imputedTuple("570")
	for _, k := range []datalake.Kind{datalake.KindTable, datalake.KindTuple, datalake.KindText, datalake.KindEntity} {
		if !v.Supports(g, k) {
			t.Errorf("LLM does not support %v", k)
		}
	}
}

func TestLLMVerifierTupleVsTable(t *testing.T) {
	// A whole table as evidence: the verifier scans rows.
	exact := NewExactVerifier()
	res, err := exact.Verify(imputedTuple("570"), tableInst(usOpen1954()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Verified {
		t.Errorf("tuple vs table = %v (%s)", res.Verdict, res.Explanation)
	}
	// A table with no matching row.
	other := table.New("x", "another caption entirely", []string{"a", "b"})
	other.MustAppendRow("1", "2")
	res, _ = exact.Verify(imputedTuple("570"), tableInst(other))
	if res.Verdict != NotRelated {
		t.Errorf("tuple vs foreign table = %v", res.Verdict)
	}
}

func TestPastaBinaryOutput(t *testing.T) {
	pasta := NewPastaVerifier(DefaultPastaConfig(3))
	// On MANY unrelated tables, PASTA must never answer NotRelated and
	// must answer Refuted at roughly UnrelatedRefuteProb.
	refuted := 0
	const n = 2000
	for i := 0; i < n; i++ {
		cl := claims.Claim{
			Context:   "some other relation entirely",
			Entities:  []string{"ghost entity"},
			Attribute: "money",
			Op:        claims.OpLookup,
			Value:     "1",
		}
		cl.Render()
		g := NewClaimObject(fmt.Sprintf("p%d", i), cl)
		res, err := pasta.Verify(g, tableInst(usOpen1954()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == NotRelated {
			t.Fatal("PASTA produced NotRelated")
		}
		if res.Verdict == Refuted {
			refuted++
		}
	}
	rate := float64(refuted) / n
	want := DefaultPastaConfig(3).UnrelatedRefuteProb
	if math.Abs(rate-want) > 0.03 {
		t.Errorf("PASTA OOD refute rate = %v, want ~%v", rate, want)
	}
}

func TestPastaExecutesTableOps(t *testing.T) {
	pasta := NewPastaVerifier(PastaConfig{Seed: 1, ClaimErr: 0, UnrelatedRefuteProb: 0.5})
	cl := claims.Claim{
		Context:   "1954 u.s. open (golf)",
		Entities:  []string{"tommy bolt", "fred haas", "ben hogan"},
		Attribute: "money",
		Op:        claims.OpSum,
		Value:     "1710",
	}
	cl.Render()
	res, err := pasta.Verify(NewClaimObject("p-sum", cl), tableInst(usOpen1954()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Verified {
		t.Errorf("PASTA sum = %v (%s)", res.Verdict, res.Explanation)
	}
}

func TestPastaRejectsWrongPairs(t *testing.T) {
	pasta := NewPastaVerifier(DefaultPastaConfig(1))
	if pasta.Supports(imputedTuple("x"), datalake.KindTable) {
		t.Error("PASTA claims to support tuple objects")
	}
	if _, err := pasta.Verify(imputedTuple("x"), tableInst(usOpen1954())); err == nil {
		t.Error("PASTA verified an unsupported pair")
	}
}

func TestTupleVerifier(t *testing.T) {
	tv := NewTupleVerifier()
	tbl := usOpen1954()
	if !tv.Supports(imputedTuple("x"), datalake.KindTuple) {
		t.Error("tuple verifier rejects its pair")
	}
	if tv.Supports(imputedTuple("x"), datalake.KindText) {
		t.Error("tuple verifier accepts text")
	}
	res, err := tv.Verify(imputedTuple("570"), tupleInst(tbl, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Verified || res.Verifier != "roberta-tuple-sim" {
		t.Errorf("tuple verifier = %+v", res)
	}
	if _, err := tv.Verify(imputedTuple("570"), tableInst(tbl)); err == nil {
		t.Error("tuple verifier accepted table evidence")
	}
}

func TestAgentRouting(t *testing.T) {
	llm := NewLLMVerifier(DefaultLLMConfig(1))
	pasta := NewPastaVerifier(DefaultPastaConfig(1))
	tupleV := NewTupleVerifier()
	agent := NewAgent(llm, WithLocalVerifier(pasta), WithLocalVerifier(tupleV))

	cl := claims.Claim{Context: "c", Entities: []string{"e"}, Attribute: "a", Op: claims.OpLookup, Value: "v"}
	cl.Render()
	claimObj := NewClaimObject("x", cl)

	if got := agent.Route(claimObj, datalake.KindTable).Name(); got != "pasta-sim" {
		t.Errorf("claim/table routed to %s", got)
	}
	if got := agent.Route(imputedTuple("1"), datalake.KindTuple).Name(); got != "roberta-tuple-sim" {
		t.Errorf("tuple/tuple routed to %s", got)
	}
	if got := agent.Route(imputedTuple("1"), datalake.KindText).Name(); got != "chatgpt-sim" {
		t.Errorf("tuple/text routed to %s", got)
	}
	if got := agent.Route(claimObj, datalake.KindText).Name(); got != "chatgpt-sim" {
		t.Errorf("claim/text routed to %s", got)
	}
}

func TestAgentVerifyDispatch(t *testing.T) {
	agent := NewAgent(NewExactVerifier(), WithLocalVerifier(NewTupleVerifier()))
	res, err := agent.Verify(imputedTuple("570"), tupleInst(usOpen1954(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verifier != "roberta-tuple-sim" || res.Verdict != Verified {
		t.Errorf("agent dispatch = %+v", res)
	}
}

func TestAgentNilFallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAgent(nil) did not panic")
		}
	}()
	NewAgent(nil)
}
