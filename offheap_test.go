package verifai

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/workload"
)

// offHeapLake is a small workload lake as the items a stored catalog
// loads from: its tables, documents and triples.
func offHeapLake(t *testing.T) []datalake.BatchItem {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumTables, cfg.NumTexts = 150, 50
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	var items []datalake.BatchItem
	for _, id := range corpus.Lake.TableIDs() {
		tb, _ := corpus.Lake.Table(id)
		items = append(items, datalake.BatchItem{Table: tb})
	}
	for _, id := range corpus.Lake.DocIDs() {
		d, _ := corpus.Lake.Document(id)
		items = append(items, datalake.BatchItem{Doc: d})
	}
	for _, tr := range corpus.Lake.Triples() {
		items = append(items, datalake.BatchItem{Triple: &tr})
	}
	return items
}

// offHeapRecord is the lineage of a verify over the lake's instances.
func offHeapRecord(i int, ids []string) provenance.Record {
	r := provenance.Record{ObjectID: fmt.Sprintf("claim-%d", i%40), Query: fmt.Sprintf("query %d", i), FinalVerdict: "refuted", Resolution: "trust-weighted majority"}
	for k := range 12 {
		id := ids[(i*7+k)%len(ids)]
		r.Hits = append(r.Hits, provenance.RetrievalHit{Index: "bm25", InstanceID: id, Score: 1 / float64(k+1), Rank: k})
		r.Combined = append(r.Combined, id)
	}
	for k := range 3 {
		r.Reranked = append(r.Reranked, provenance.RerankEntry{InstanceID: r.Combined[k], Score: math.Pi / float64(k+1), Rank: k})
		r.Decisions = append(r.Decisions, provenance.VerifierDecision{InstanceID: r.Combined[k], SourceID: "synthetic-tables", Verifier: "table", Verdict: "refuted", Explanation: fmt.Sprint("cell ", k), SourceTrust: 0.8})
	}
	return r
}

// offHeapReads is what the three off-heap owners hand out: a lake and its
// View (tables, tuples, documents, triples, the graph's entities and their
// pages, the column form of the triples), an Embedder (its token rows,
// copied, and embeddings) and a provenance.Store (records, outcomes,
// lookups); and the owners, for their off-heap counters.
func offHeapReads(t *testing.T, items []datalake.BatchItem) (map[string]any, *embed.Embedder, *provenance.Store) {
	t.Helper()
	out := map[string]any{}
	lake, err := datalake.Load(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	defer lake.Close()
	view, err := lake.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids, texts []string
	for _, id := range view.TableIDs() {
		tb, _ := view.Table(id)
		out["table:"+id] = tb
		ids = append(ids, datalake.TableInstanceID(id), datalake.TupleInstanceID(id, 0))
		texts = append(texts, tb.SerializeForIndex())
	}
	for _, id := range view.DocIDs() {
		d, _ := lake.Document(id)
		out["text:"+id] = d
		ids = append(ids, datalake.TextInstanceID(id))
		texts = append(texts, d.Text)
	}
	g := lake.Graph()
	out["triples"], out["view triples"] = lake.Triples(), view.Triples()
	out["entities"] = view.Graph().Entities()
	for _, e := range out["entities"].([]string) {
		canonical, n := g.Entity(e)
		source, _ := view.Graph().EntitySource(e)
		out["entity:"+e] = []any{canonical, n, source, g.About(e), view.Graph().About(e), view.Graph().SerializeEntity(e)}
		ids = append(ids, datalake.EntityInstanceID(e))
	}
	triples := out["triples"].([]kg.Triple)
	for _, tr := range triples[:min(200, len(triples))] {
		out["lookup:"+tr.Subject+"/"+tr.Predicate] = g.Lookup(tr.Subject, tr.Predicate)
	}
	for _, id := range ids {
		in, err := lake.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		out["resolve:"+id] = []any{in.Table, in.Tuple, in.Doc, in.Entity, in.SourceID}
	}
	for _, name := range kg.ColumnNames {
		var col []string
		for s := range view.Column(name) {
			col = append(col, string([]byte(s)))
		}
		out[name] = col
	}

	emb := embed.NewEmbedder(32, 7)
	for _, tx := range texts {
		emb.AddBag(make(embed.Vector, emb.Dim()), emb.Dict().Analyze(tx))
	}
	var rows []float32
	for id := range uint32(emb.Dict().Len()) {
		rows = append(rows, emb.Row(id)...)
	}
	var embeddings []embed.Vector
	for _, tx := range texts {
		embeddings = append(embeddings, emb.EmbedText(tx))
	}
	out["token rows"], out["embeddings"] = rows, embeddings

	store := provenance.NewStore()
	for i := range 300 {
		store.Append(offHeapRecord(i, ids))
	}
	for seq := range store.Len() {
		r, _ := store.Get(seq)
		o, _ := store.Outcome(seq)
		out[fmt.Sprint("record ", seq)] = []any{r, o}
	}
	for i := range 40 {
		id := fmt.Sprintf("claim-%d", i)
		out["object:"+id] = store.ByObject(id)
	}
	out["tainted"] = store.TaintedBy(ids[3])
	st := store.Stats()
	st.OffHeapBytes = 0
	out["store stats"] = st
	return out, emb, store
}

// TestOffHeapReadsOutliveTheirOwners: what a lake and its View, an
// Embedder and a provenance.Store hand out stays intact after they are
// dropped and the collector — running at every percent of heap growth —
// has released their mappings, and others have been mapped since. The
// lake, the View and the Store copy out what they hand out; the Embedder
// hands out views of its token table, which its callers keep it reachable
// for, as a ColBERT scorer does after the Embedder's creator lets it go.
func TestOffHeapReadsOutliveTheirOwners(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	items := offHeapLake(t)
	deep := func(v any) string { // a deep copy
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want, _, _ := offHeapReads(t, items)
	for k, v := range want {
		want[k] = deep(v)
	}

	emb := embed.NewEmbedder(32, 7)
	q := rerank.Query{Text: "the prize money of the golf open"}
	var docs []datalake.Instance
	for _, it := range items {
		if it.Doc != nil && len(docs) < 40 {
			docs = append(docs, datalake.Instance{Kind: datalake.KindText, Doc: it.Doc})
			emb.Dict().Analyze(it.Doc.Text)
		}
	}
	emb.Dict().Analyze(q.Text)
	colbert := rerank.NewColBERT(emb, 256)
	scores := make([]float64, len(docs))
	for i, d := range docs {
		scores[i] = colbert.Score(q, d)
	}
	emb = nil

	got, _, _ := offHeapReads(t, items)
	for range 3 {
		runtime.GC()
		offHeapReads(t, items[:len(items)/3]) // maps and drops others
	}
	for k, v := range want {
		if s := deep(got[k]); s != v {
			t.Fatalf("%s after its owner was dropped:\n%s\nwant\n%s", k, s, v)
		}
	}
	for i, d := range docs {
		runtime.GC()
		if s := colbert.Score(q, d); math.Float64bits(s) != math.Float64bits(scores[i]) {
			t.Fatalf("document %d scores %v once its Embedder's creator let go, %v before", i, s, scores[i])
		}
	}
}

// TestOffHeapMatchesHeapBuffers: with the off-heap buffers on the heap
// (NoMmapEnv), a lake and its View, an Embedder and a provenance.Store
// hand out exactly what they do from mappings, and count nothing off the
// heap.
func TestOffHeapMatchesHeapBuffers(t *testing.T) {
	items := offHeapLake(t)
	mapped, memb, mstore := offHeapReads(t, items)
	if runtime.GOOS == "linux" && os.Getenv(binfmt.NoMmapEnv) == "" && (memb.OffHeapBytes() != memb.TableBytes() || mstore.Stats().OffHeapBytes == 0) {
		t.Fatalf("mapped: token table %d of %d B off the heap, store %+v", memb.OffHeapBytes(), memb.TableBytes(), mstore.Stats())
	}
	t.Setenv(binfmt.NoMmapEnv, "1")
	heap, hemb, hstore := offHeapReads(t, items)
	if hemb.OffHeapBytes() != 0 || hstore.Stats().OffHeapBytes != 0 {
		t.Fatalf("heap buffers: token table %d B off the heap, store %+v", hemb.OffHeapBytes(), hstore.Stats())
	}
	keys := slices.Sorted(maps.Keys(mapped))
	if len(heap) != len(mapped) {
		t.Fatalf("%d reads from heap buffers, %d from mappings", len(heap), len(mapped))
	}
	for _, k := range keys {
		if !reflect.DeepEqual(heap[k], mapped[k]) {
			t.Fatalf("%s from heap buffers:\n%v\nfrom mappings:\n%v", k, heap[k], mapped[k])
		}
	}
}

// TestStatsCountEntitiesAsTheyArrive: the lake's Stats count the distinct
// folded subjects that Graph().Entities lists — kept as triples arrive,
// not rebuilt per call — on the default lake's triples before any seal,
// after a fork's seal, after seals by size with subjects repeated in
// other casings, and on a View.
func TestStatsCountEntitiesAsTheyArrive(t *testing.T) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	triples := corpus.Lake.Triples()
	lake := datalake.New()
	defer lake.Close()
	check := func(where string, entities int, g *kg.Graph) {
		t.Helper()
		if n := len(g.Entities()); entities != n || g.NumEntities() != n {
			t.Fatalf("%s: Stats counts %d entities, the graph %d, and lists %d", where, entities, g.NumEntities(), n)
		}
	}
	for _, tr := range triples[:500] {
		if err := lake.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(lake.Graph().Unsealed()); n != 500 {
		t.Fatalf("%d of 500 triples unsealed", n)
	}
	check("before a seal", lake.Stats().Entities, lake.Graph())
	view, err := lake.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lake.Graph().Unsealed()); n != 0 {
		t.Fatalf("%d triples unsealed after a fork", n)
	}
	check("after a seal", lake.Stats().Entities, lake.Graph())
	var items []datalake.BatchItem
	for i, tr := range triples[500:] {
		items = append(items, datalake.BatchItem{Triple: &tr})
		if i%10 == 0 { // a sealed or unsealed subject in another casing
			items = append(items, datalake.BatchItem{Triple: &kg.Triple{Subject: strings.ToUpper(triples[i].Subject), Predicate: "again", Object: "x"}})
		}
	}
	if _, err := lake.AddBatch(items); err != nil {
		t.Fatal(err)
	}
	check("after seals by size", lake.Stats().Entities, lake.Graph())
	if got, want := lake.Stats().Entities, corpus.Lake.Stats().Entities; got != want {
		t.Fatalf("%d entities, the default lake has %d", got, want)
	}
	check("on a View", view.Graph().NumEntities(), view.Graph())
}
