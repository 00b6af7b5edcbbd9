package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/workload"
)

// TestLineageLossless runs a thousand verifications — claims, imputed
// tuples, and claims read at a pinned snapshot — and checks the provenance
// store against lineage rebuilt independently of it, from each Report and a
// repeat of its retrieval: every Get must equal the Record the pipeline
// appended, and WriteJSON must be, byte for byte, encoding/json's rendering
// of those records (what the store wrote when it held them as a slice).
func TestLineageLossless(t *testing.T) {
	claims, tuples, pinned := 900, 40, 60
	if testing.Short() {
		claims, tuples, pinned = 90, 4, 6
	}
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 200, 100
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(corpus.Lake, ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	claimTasks, err := corpus.ClaimTasks(claims + pinned)
	if err != nil {
		t.Fatal(err)
	}
	tupleTasks, err := corpus.TupleTasks(tuples)
	if err != nil {
		t.Fatal(err)
	}

	var want []provenance.Record
	expect := func(rep Report, err error, kinds ...Kind) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if rep.ProvenanceSeq != len(want) {
			t.Fatalf("%s: provenance seq %d, want %d", rep.Object.ID, rep.ProvenanceSeq, len(want))
		}
		want = append(want, lineageOf(sys, rep, kinds...))
	}
	for i, ct := range claimTasks[:claims] {
		rep, err := sys.VerifyClaim(fmt.Sprintf("claim-%04d", i), ct.Claim, KindTable)
		expect(rep, err, KindTable)
	}
	for i, tt := range tupleTasks {
		// Kinds in the order the pipeline normalizes them to.
		rep, err := sys.VerifyImputedTuple(fmt.Sprintf("tuple-%04d", i), tt.Tuple, tt.MaskedAttr(), KindTuple, KindText)
		expect(rep, err, KindTuple, KindText)
	}
	// Nothing is ingested after the pin, so a pinned retrieval ranks as the
	// head one lineageOf repeats.
	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range claimTasks[claims:] {
		rep, err := sys.VerifyClaimAsOfCtx(context.Background(), fmt.Sprintf("pinned-%04d", i), ct.Claim, pin, KindTable)
		expect(rep, err, KindTable)
	}

	store := sys.Provenance()
	if store.Len() != len(want) {
		t.Fatalf("store holds %d records, want %d", store.Len(), len(want))
	}
	for seq, w := range want {
		if got, _ := store.Get(seq); !reflect.DeepEqual(got, w) {
			t.Fatalf("record %d (%s):\n got %+v\nwant %+v", seq, w.ObjectID, got, w)
		}
	}
	st := store.Stats()
	if !testing.Short() && (st.Segments < 2 || st.Bytes/int64(st.Records) > 6<<10) {
		t.Errorf("stats = %+v: want the run to cross a segment seal at no more than 6 KB a record", st)
	}
	var scrape bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{
		fmt.Sprintf("\nverifai_provenance_records %d\n", st.Records),
		"\nverifai_provenance_bytes ",
		fmt.Sprintf("\nverifai_provenance_segments %d\n", st.Segments),
	} {
		if !bytes.Contains(scrape.Bytes(), []byte(sample)) {
			t.Errorf("/metrics lacks %q", sample)
		}
	}

	var got, golden bytes.Buffer
	if err := store.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&golden)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden.Bytes()) {
		t.Fatalf("WriteJSON (%d bytes) differs from encoding/json over the same records (%d bytes)", got.Len(), golden.Len())
	}
}

// lineageOf rebuilds the Record the pipeline appended for rep without
// reading the store: retrieval is repeated (it is deterministic over an
// unchanged lake) and the rest is in the Report.
func lineageOf(sys *System, rep Report, kinds ...Kind) provenance.Record {
	hits, combined := sys.Pipeline().Retrieve(rep.Object, sys.options.Pipeline.TopK, kinds...)
	rec := provenance.Record{
		Seq:          rep.ProvenanceSeq,
		ObjectID:     rep.Object.ID,
		Query:        rep.Object.Query(),
		Hits:         hits,
		Combined:     combined,
		FinalVerdict: rep.Verdict.String(),
		Resolution:   "no decisive evidence",
	}
	for rank, ev := range rep.Evidence {
		rec.Reranked = append(rec.Reranked, provenance.RerankEntry{InstanceID: ev.Instance.ID, Score: ev.RerankScore, Rank: rank})
		rec.Decisions = append(rec.Decisions, provenance.VerifierDecision{
			InstanceID:  ev.Instance.ID,
			SourceID:    ev.Instance.SourceID,
			Verifier:    ev.Result.Verifier,
			Verdict:     ev.Result.Verdict.String(),
			Explanation: ev.Result.Explanation,
			SourceTrust: ev.SourceTrust,
		})
		if ev.Result.Verdict != NotRelated {
			rec.Resolution = "trust-weighted majority"
		}
	}
	return rec
}
