package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/workload"
)

// TestDerivedVectorsMatchIngested: on the default workload lake, every
// vector row a reopened indexer derives from its BM25 files is, bit for
// bit, the embedding ingestion computed for that instance — so are its
// codes and norms, which quantization computes from the row alone, and
// vecindex holds a derived segment to the sealed one byte for byte. The
// derived indexes are the size of the sealed ones, and the reopened
// indexer retrieves as the fresh build does, scores included, for 100
// claims and 100 tuples of the workload.
func TestDerivedVectorsMatchIngested(t *testing.T) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lake := corpus.Lake
	defer lake.Close()
	cfg := DefaultIndexerConfig(1)
	fresh, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	// What ingestion embedded, by instance ID.
	var pe preparedEvent
	for _, id := range lake.TableIDs() {
		tb, _ := lake.Table(id)
		pe.vec = append(pe.vec, fresh.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: tb}).vec...)
	}
	for _, id := range lake.DocIDs() {
		d, _ := lake.Document(id)
		pe.vec = append(pe.vec, fresh.prepareEvent(datalake.Event{Kind: datalake.KindText, Doc: d}).vec...)
	}
	g := lake.Graph()
	for _, e := range g.Entities() {
		text, _ := g.EntityPage(e)
		pe.addInstance(fresh, datalake.KindEntity, datalake.EntityInstanceID(e), text)
	}
	ingested := make(map[string]embed.Vector, len(pe.vec))
	perKind := map[datalake.Kind]int{}
	for _, op := range pe.vec {
		ingested[op.id] = op.vec
		perKind[op.kind]++
	}

	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return fresh.Freeze().Save(faultfs.OS, dir, v) }); err != nil {
		t.Fatal(err)
	}
	reopened, err := BuildIndexerFromSnapshot(lake, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	row := make(embed.Vector, cfg.EmbedDim)
	for _, kind := range cfg.Kinds {
		tr, err := reopened.bm25[kind].Transpose()
		if err != nil {
			t.Fatal(err)
		}
		fill := derivedRows(tr, tokenVectors(reopened.emb, []*invindex.Transposed{tr}))
		if tr.Len() != perKind[kind] {
			t.Fatalf("%s: %d rows derived, %d ingested", kind, tr.Len(), perKind[kind])
		}
		for d, id := range tr.IDs.All() {
			clear(row)
			fill(d, row)
			want := ingested[string(id)]
			for i := range want {
				if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: component %d derived as %v, ingested as %v", id, i, row[i], want[i])
				}
			}
		}
	}
	if got, want := reopened.IndexStats().Families[familyVector], fresh.IndexStats().Families[familyVector]; got != want {
		t.Errorf("derived vector indexes %+v, sealed ones %+v", got, want)
	}

	claims, err := corpus.ClaimTasks(100)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := corpus.TupleTasks(100)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, ct := range claims {
		queries = append(queries, ct.Claim.Text)
	}
	for _, tt := range tuples {
		queries = append(queries, tt.MaskedTuple().SerializeForIndex())
	}
	ctx := context.Background()
	for _, q := range queries {
		if got, want := reopened.search(ctx, q, 100, nil, true, true), fresh.search(ctx, q, 100, nil, true, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q:\n reopened %+v\n fresh    %+v", q, got, want)
		}
	}
}
