package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/faultfs"
	"repro/internal/table"
	"repro/internal/textutil"
	"repro/internal/vecindex"
	"repro/internal/workload"
)

// instance is one serialized lake instance as ingestion indexes it.
type instance struct {
	kind     datalake.Kind
	id, text string
}

// lakeInstances lists every instance of lake the default indexer config
// indexes, with the text its prepare stage serializes.
func lakeInstances(lake *datalake.Lake) []instance {
	var out []instance
	for _, id := range lake.TableIDs() {
		tb, _ := lake.Table(id)
		out = append(out, instance{datalake.KindTable, datalake.TableInstanceID(id), tb.SerializeForIndex()})
		for row := range tb.Rows {
			tp, _ := tb.TupleAt(row)
			out = append(out, instance{datalake.KindTuple, datalake.TupleInstanceID(id, row), tp.SerializeForIndex()})
		}
	}
	for _, id := range lake.DocIDs() {
		d, _ := lake.Document(id)
		out = append(out, instance{datalake.KindText, datalake.TextInstanceID(id), d.SerializeForIndex()})
	}
	g := lake.Graph()
	for _, e := range g.Entities() {
		text, _ := g.EntityPage(e)
		out = append(out, instance{datalake.KindEntity, datalake.EntityInstanceID(e), text})
	}
	return out
}

// TestBagMatchesCounts: for every serialized instance of the default
// workload lake, the bag both index families are fed holds each term of
// the analysis chain (AppendTerms) once, in strictly ascending order of
// the terms, with the count a map counts for it, and the counts sum to the
// token count.
func TestBagMatchesCounts(t *testing.T) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	dict := textutil.NewDict()
	for _, in := range lakeInstances(corpus.Lake) {
		tokens := new(textutil.Dict).AppendTerms(nil, in.text)
		counts := make(map[string]int32, len(tokens))
		for _, tok := range tokens {
			counts[tok]++
		}
		bag := dict.Analyze(in.text)
		if bag.Len != len(tokens) || len(bag.Terms) != len(counts) {
			t.Fatalf("%s: bag of %d tokens, %d terms; analysis has %d tokens, %d terms",
				in.id, bag.Len, len(bag.Terms), len(tokens), len(counts))
		}
		sum := 0
		for i, tf := range bag.Terms {
			term := dict.Term(tf.ID)
			if i > 0 && dict.Term(bag.Terms[i-1].ID) >= term {
				t.Fatalf("%s: terms %q, %q out of order", in.id, dict.Term(bag.Terms[i-1].ID), term)
			}
			if tf.Freq != counts[term] {
				t.Fatalf("%s: %q counted %d, analysis has it %d times", in.id, term, tf.Freq, counts[term])
			}
			sum += int(tf.Freq)
		}
		if sum != bag.Len {
			t.Fatalf("%s: counts sum to %d, %d tokens", in.id, sum, bag.Len)
		}
	}
}

// TestDerivedVectorsMatchIngested: on the default workload lake, every
// vector row a reopened indexer derives from its BM25 indexes (opened from
// their files, the table kind's summed from the tuple kind's) is, bit for
// bit, what EmbedText returns for the instance's text, and its codes and
// norm are the ones the prepare stage quantized for the instance; vecindex
// holds a derived segment to the sealed one byte for byte. The derived indexes are the size of the sealed ones, and the
// reopened indexer retrieves as the fresh build does, scores included, for
// 100 claims and 100 tuples of the workload.
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

	// What ingestion prepared, by instance ID.
	var pe preparedEvent
	for _, id := range lake.TableIDs() {
		tb, _ := lake.Table(id)
		pe.ops = append(pe.ops, fresh.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: tb}).ops...)
	}
	for _, id := range lake.DocIDs() {
		d, _ := lake.Document(id)
		pe.ops = append(pe.ops, fresh.prepareEvent(datalake.Event{Kind: datalake.KindText, Doc: d}).ops...)
	}
	texts := make(map[string]string)
	for _, in := range lakeInstances(lake) {
		texts[in.id] = in.text
		if in.kind == datalake.KindEntity {
			pe.addInstance(fresh, make(embed.Vector, cfg.EmbedDim), in.kind, in.id, in.text)
		}
	}
	ingested := make(map[string]indexOp, len(pe.ops))
	perKind := map[datalake.Kind]int{}
	for _, op := range pe.ops {
		ingested[op.id] = op
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
	_, trs, err := openBM25(reopened, dir, lake)
	if err != nil {
		t.Fatal(err)
	}
	for i, kind := range allKinds {
		tr := trs[i]
		fill := derivedRows(reopened.emb, tr)
		if tr.Len() != perKind[kind] {
			t.Fatalf("%s: %d rows derived, %d ingested", kind, tr.Len(), perKind[kind])
		}
		codes := make([]int8, cfg.EmbedDim)
		for d, id := range tr.IDs.All() {
			clear(row)
			fill(d, row)
			want := fresh.emb.EmbedText(texts[string(id)])
			for i := range want {
				if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: component %d derived as %v, embedded as %v", id, i, row[i], want[i])
				}
			}
			op := ingested[string(id)]
			if norm := vecindex.Quantize(codes, row); norm != op.norm || !slices.Equal(codes, op.codes) {
				t.Fatalf("%s: derived codes and norm %v differ from the prepared ones (norm %v)", id, norm, op.norm)
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
		queries = append(queries, tt.Tuple.WithValue(tt.MaskedAttr(), table.Missing).SerializeForIndex())
	}
	ctx := context.Background()
	for _, q := range queries {
		if got, want := reopened.search(ctx, q, 100, nil, true, true), fresh.search(ctx, q, 100, nil, true, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q:\n reopened %+v\n fresh    %+v", q, got, want)
		}
	}
}
