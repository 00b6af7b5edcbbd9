package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/table"
	"repro/internal/textutil"
	"repro/internal/verify"
	"repro/internal/workload"
)

// TestPieceBagsMatchSerialization: for every table of the default
// workload lake, the case data, and tables with rows wider than their
// header, the bags prepareEvent folds from the pieces it analyzes — the
// table's and each tuple's — are, ID for ID and count for count, the
// dictionary's bags of the texts SerializeForIndex writes.
func TestPieceBagsMatchSerialization(t *testing.T) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Lake.Close()
	var tables []*table.Table
	for _, id := range corpus.Lake.TableIDs() {
		tb, _ := corpus.Lake.Table(id)
		tables = append(tables, tb)
	}
	tables = append(tables, workload.OhioDistrictsTable(), workload.FilmographyTable(), workload.USOpen1954Table(), workload.USOpen1959Table(),
		&table.Table{ID: "wide", Caption: "Wide rows", Columns: []string{"Player", "Money"},
			Rows: [][]string{{"tommy bolt", "570", "beyond the header", "1954"}, {"ed furgol", "6000"}, {"fred haas", "570", "Haas"}}},
		&table.Table{ID: "headless", Caption: "the of", Rows: [][]string{{"only", "cells"}, nil}},
		&table.Table{ID: "empty", Columns: []string{"a", "b"}},
	)
	ix := newIndexer(nil, &IndexerConfig{})
	dict := ix.emb.Dict()
	same := func(a, b textutil.IDBag) bool { return a.Len == b.Len && slices.Equal(a.Terms, b.Terms) }
	instances := 0
	for _, tb := range tables {
		ops := ix.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: tb}).ops
		if len(ops) != 1+len(tb.Rows) {
			t.Fatalf("table %s: %d ops for %d rows", tb.ID, len(ops), len(tb.Rows))
		}
		if want := dict.Analyze(tb.SerializeForIndex()); !same(ops[0].bag, want) {
			t.Fatalf("table %s: piece bag %+v, bag of its serialization %+v", tb.ID, ops[0].bag, want)
		}
		for r := range tb.Rows {
			tp, _ := tb.TupleAt(r)
			if want := dict.Analyze(tp.SerializeForIndex()); !same(ops[1+r].bag, want) {
				t.Fatalf("tuple %s row %d: piece bag %+v, bag of its serialization %+v", tb.ID, r, ops[1+r].bag, want)
			}
		}
		instances += len(ops)
	}
	t.Logf("%d tables and tuples", instances)
}

// TestTokenTableGrowsWithLakeNotTraffic: verifying text no lake instance
// holds looks its terms up and never adds them: the dictionary and the
// token table are the size ingest left them after any number of
// verifies, and an ingest grows both.
func TestTokenTableGrowsWithLakeNotTraffic(t *testing.T) {
	lake := smallLake(t)
	p := buildPipeline(t, lake)
	emb := p.Indexer().Embedder()
	terms, tableBytes := emb.Dict().Len(), emb.TableBytes()
	for i := 0; i < 50; i++ {
		c := claims.Claim{
			Context:   fmt.Sprintf("zorblax %d open (quuxball%d)", 1900+i, i),
			Entities:  []string{fmt.Sprintf("wibble%d frobnitz", i)},
			Attribute: fmt.Sprintf("glimmer%d", i),
			Op:        claims.OpLookup,
			Value:     fmt.Sprintf("%d", 7000+i),
		}
		c.Render()
		if _, err := p.Verify(verify.NewClaimObject(fmt.Sprintf("novel%d", i), c)); err != nil {
			t.Fatal(err)
		}
		tp := table.Tuple{Caption: fmt.Sprintf("snarf %d", i), Columns: []string{"blorp", "money"}, Values: []string{fmt.Sprintf("gazonk%d", i), table.Missing}}
		if _, err := p.Verify(verify.NewTupleObject(fmt.Sprintf("novel-tuple%d", i), tp, "money")); err != nil {
			t.Fatal(err)
		}
	}
	if n := emb.Dict().Len(); n != terms {
		t.Errorf("100 verifies of novel text grew the dictionary from %d to %d terms", terms, n)
	}
	if b := emb.TableBytes(); b != tableBytes {
		t.Errorf("100 verifies of novel text grew the token table from %d to %d bytes", tableBytes, b)
	}
	if err := lake.AddDocument(&doc.Document{ID: "novel-doc", Title: "zorblax", Text: "wibble frobnitz"}); err != nil {
		t.Fatal(err)
	}
	if n := emb.Dict().Len(); n <= terms {
		t.Errorf("ingesting novel terms left the dictionary at %d terms", n)
	}
}
