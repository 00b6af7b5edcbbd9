package verifai

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
)

// caseLake builds a small lake from the paper's Figure 1/4 case data plus
// the Tommy Bolt entity page.
func caseLake(t *testing.T) *Lake {
	t.Helper()
	lake := NewLake()
	lake.AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9})
	for _, tbl := range []*Table{
		workload.OhioDistrictsTable(),
		workload.FilmographyTable(),
		workload.USOpen1954Table(),
		workload.USOpen1959Table(),
	} {
		if err := lake.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := lake.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	return lake
}

// noiseFreeOptions disables the calibrated error injection so single-case
// assertions are stable.
func noiseFreeOptions(seed uint64) Options {
	o := DefaultOptions(seed)
	o.LLM.TupleEvidenceErr = 0
	o.LLM.TextEvidenceErr = 0
	o.LLM.LookupClaimErr = 0
	o.LLM.AggClaimErr = 0
	o.LLM.CountClaimErr = 0
	o.LLM.RelevanceErr = 0
	o.LLM.TupleRelevanceErr = 0
	o.Pasta.ClaimErr = 0
	return o
}

// TestNewSystemZeroOptionsIndexesEveryKind: NewSystem given no indexer
// configuration indexes all four kinds, in both families, at the default
// dimension.
func TestNewSystemZeroOptionsIndexesEveryKind(t *testing.T) {
	lake := caseLake(t)
	if err := lake.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: "cases"}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(lake, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ix := sys.Pipeline().Indexer()
	if dim := ix.Embedder().Dim(); dim != 128 {
		t.Errorf("embedding dimension %d, want 128", dim)
	}
	for _, kind := range []Kind{KindTable, KindTuple, KindText, KindEntity} {
		for _, family := range []string{"bm25", "vector"} {
			if ids := ix.RetrieveFamily("tommy bolt 1958 u.s. open golf meagan good actress", family, 5, kind); len(ids) == 0 {
				t.Errorf("%s retrieval of %s instances found nothing", family, kind)
			}
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.VerifyClaimText("golf",
		"In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.")
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Refuted {
		t.Fatalf("verdict = %v", report.Verdict)
	}
	found := false
	for _, ev := range report.Evidence {
		if ev.Result.Verdict == Refuted && strings.Contains(ev.Result.Explanation, "1710") {
			found = true
		}
	}
	if !found {
		t.Error("no evidence explanation contains the true total 1710")
	}
}

func TestVerifyImputedTuple(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(0)

	rep, err := sys.VerifyImputedTuple("ohio-1", tp, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Verified {
		t.Errorf("correct imputation = %v", rep.Verdict)
	}

	wrong := tp.WithValue("incumbent", "someone else")
	rep, err = sys.VerifyImputedTuple("ohio-1-bad", wrong, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Refuted {
		t.Errorf("wrong imputation = %v", rep.Verdict)
	}

	// Unknown attribute is rejected.
	if _, err := sys.VerifyImputedTuple("x", tp, "nonexistent"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestVerifyImputedTupleRejectsRaggedTuple: a tuple whose values do not
// match its columns one for one is an error, whichever attribute is asked
// for, on every entry point — not a panic in serialization.
func TestVerifyImputedTupleRejectsRaggedTuple(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	short := Tuple{Caption: "c", Columns: []string{"player", "money"}, Values: []string{"tommy bolt"}}
	long := Tuple{Caption: "c", Columns: []string{"player"}, Values: []string{"tommy bolt", "570"}}
	for _, tp := range []Tuple{short, long} {
		for _, attr := range []string{"player", "money"} {
			if _, err := sys.VerifyImputedTuple("ragged", tp, attr); err == nil {
				t.Errorf("%d columns, %d values, attr %q: accepted", len(tp.Columns), len(tp.Values), attr)
			}
			if _, err := sys.VerifyImputedTupleAsOfCtx(context.Background(), "ragged", tp, attr, 0); err == nil {
				t.Errorf("%d columns, %d values, attr %q: accepted at head", len(tp.Columns), len(tp.Values), attr)
			}
		}
	}
}

func TestVerifyClaimAgainstTextEvidence(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	claim := workload.StompTheYardClaim() // true claim: role was april palmer
	rep, err := sys.VerifyClaim("stomp", claim, KindTable, KindText)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Verified {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	// Both a table and a text instance should appear as evidence.
	kinds := map[Kind]bool{}
	for _, ev := range rep.Evidence {
		kinds[ev.Instance.Kind] = true
	}
	if !kinds[KindTable] || !kinds[KindText] {
		t.Errorf("evidence kinds = %v, want table and text", kinds)
	}
}

func TestParseClaimErrors(t *testing.T) {
	if _, err := ParseClaim("free-form text with no template"); err == nil {
		t.Error("freeform text parsed")
	}
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.VerifyClaimText("x", "not a claim"); err == nil {
		t.Error("unparseable claim verified")
	}
}

func TestProvenanceRecorded(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	claim := workload.GolfClaim()
	rep, err := sys.VerifyClaim("golf", claim)
	if err != nil {
		t.Fatal(err)
	}
	store := sys.Provenance()
	if store == nil {
		t.Fatal("provenance disabled by default options")
	}
	rec, ok := store.Get(rep.ProvenanceSeq)
	if !ok {
		t.Fatal("provenance record missing")
	}
	if rec.ObjectID != "golf" || len(rec.Hits) == 0 || len(rec.Reranked) == 0 {
		t.Errorf("provenance record incomplete: %+v", rec)
	}
	// Reverse lineage: the 1954 table taints the golf verdict.
	tainted := store.TaintedBy("table:case-usopen-1954")
	if len(tainted) != 1 || tainted[0] != "golf" {
		t.Errorf("TaintedBy = %v", tainted)
	}
}

func TestSetSourceTrustAffectsConfidence(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetSourceTrust("cases", 0.95)
	rep, err := sys.VerifyClaim("golf2", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Refuted {
		t.Errorf("verdict = %v", rep.Verdict)
	}
}

func TestRetrieveOnly(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	claim := workload.GolfClaim()
	rep := sys.Retrieve(NewClaimObject("golf", claim), 5, KindTable)
	if len(rep) == 0 || rep[0] != "table:case-usopen-1954" {
		t.Errorf("Retrieve = %v", rep)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, DefaultOptions(1)); err == nil {
		t.Error("nil lake accepted")
	}
	// Zero options are normalized to defaults.
	sys, err := NewSystem(caseLake(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Provenance() == nil {
		t.Error("zero options left the system without lineage")
	}
}
