package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/workload"
)

// TestPinnedVerdictReproducible is the time-travel reproducibility
// property: pin a snapshot, verify a claim against it, then churn the
// lake with a thousand mixed writes and re-weight the claim's source —
// and the pinned verdict must come back byte-identical, first from the
// result cache (the pin is part of the key, so the entry survives every
// head invalidation) and again when recomputed from the frozen shards.
func TestPinnedVerdictReproducible(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	claim := "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total."
	// The case tables carry SourceID "paper-cases"; weight it explicitly so
	// the pin must capture a live trust override, not just a lake prior.
	sys.SetSourceTrust("paper-cases", 0.9)

	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if pin != sys.LakeVersion() {
		t.Fatalf("pinned version %d, want lake head %d", pin, sys.LakeVersion())
	}

	// Baseline pinned read: computed from the frozen shards, cached under
	// the pin, stamped with it.
	rep0, err := sys.VerifyClaimTextAsOfCtx(ctx, "repro", claim, pin)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.AsOfVersion != pin {
		t.Fatalf("report AsOfVersion = %d, want %d", rep0.AsOfVersion, pin)
	}
	if rep0.Verdict != Refuted {
		t.Fatalf("pinned verdict = %v, want Refuted", rep0.Verdict)
	}
	for _, ev := range rep0.Evidence {
		if ev.SourceTrust != 0.9 {
			t.Fatalf("pinned evidence trust = %v, want the pin-time override 0.9", ev.SourceTrust)
		}
	}

	// Churn: a thousand mixed writes, several of them deliberately about
	// the same tournament, plus a trust collapse for the claim's source.
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			if err := sys.AddDocument(&Document{
				ID: fmt.Sprintf("churn-doc-%04d", i), Title: "churn", SourceID: "paper-cases",
				Text: fmt.Sprintf("In 1954 u.s. open (golf) retrospective %d, tommy bolt's cash prize was 960.", i),
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := sys.AddTriple(Triple{
				Subject: fmt.Sprintf("churn-entity-%04d", i), Predicate: "cash prize",
				Object: "960", SourceID: "paper-cases",
			}); err != nil {
				t.Fatal(err)
			}
		default:
			tbl := NewTable(fmt.Sprintf("churn-table-%04d", i), "1954 u.s. open (golf) revised", []string{"player", "cash prize"})
			tbl.SourceID = "paper-cases"
			tbl.MustAppendRow("tommy bolt", "320")
			if err := sys.AddTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.SetSourceTrust("paper-cases", 0.05)

	// Head moved: a fresh head read sees the re-weighted trust.
	head, err := sys.VerifyClaimTextCtx(ctx, "head-after-churn", claim)
	if err != nil {
		t.Fatal(err)
	}
	if head.AsOfVersion != 0 {
		t.Fatalf("head report AsOfVersion = %d, want 0", head.AsOfVersion)
	}
	for _, ev := range head.Evidence {
		if ev.SourceTrust != 0.05 {
			t.Fatalf("head evidence trust = %v, want the live override 0.05", ev.SourceTrust)
		}
	}

	// Same request at the same pin: identical report, served by the result
	// cache — the pinned entry must survive 1000 invalidating writes.
	hitsBefore := sys.Stats().ResultCacheHits
	rep1, err := sys.VerifyClaimTextAsOfCtx(ctx, "repro", claim, pin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep0, rep1) {
		t.Fatalf("cached pinned report drifted:\n  first  %+v\n  second %+v", rep0, rep1)
	}
	if hits := sys.Stats().ResultCacheHits; hits != hitsBefore+1 {
		t.Fatalf("ResultCacheHits = %d after pinned re-verify, want %d (cache must serve the pinned entry)", hits, hitsBefore+1)
	}

	// New request ID at the same pin: a cache miss, recomputed end-to-end
	// from the frozen shards — still the same verdict, evidence, and
	// pin-time trust, differing only in request identity and lineage seq.
	rep2, err := sys.VerifyClaimTextAsOfCtx(ctx, "repro-recompute", claim, pin)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep0, rep2
	a.Object.ID, b.Object.ID = "", ""
	a.ProvenanceSeq, b.ProvenanceSeq = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recomputed pinned report drifted:\n  cached     %+v\n  recomputed %+v", a, b)
	}
}

// catalogStringColumns are a catalog container's string columns, in
// file order; catalogDictColumns are those catalog format 3 stores as
// dictionaries.
var (
	catalogStringColumns = []string{
		"table.id", "table.caption", "table.source", "table.columns", "table.cells",
		"doc.id", "doc.title", "doc.entity", "doc.source", "doc.text",
		"triple.subject", "triple.predicate", "triple.object", "triple.source",
	}
	catalogDictColumns = map[string]bool{
		"table.source": true, "table.columns": true, "table.cells": true, "doc.source": true,
		"triple.subject": true, "triple.predicate": true, "triple.source": true,
	}
)

// rewriteAsCatalogFormat2 rewrites the format-3 catalog container at path
// the way the release before catalog format 3 wrote it: every string
// column deflated, none a dictionary, and the integer columns as uint32s.
func rewriteAsCatalogFormat2(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := binfmt.NewReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	w := binfmt.NewWriter()
	if err := w.JSON("format", 2); err != nil {
		t.Fatal(err)
	}
	sources, err := r.Bytes("sources")
	if err != nil {
		t.Fatal(err)
	}
	w.Section("sources", sources)
	tables := 0
	for _, name := range catalogStringColumns {
		read := r.DeflatedStrings
		if catalogDictColumns[name] {
			read = r.DictStrings
		}
		vals, err := read(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "table.id" {
			tables = len(vals)
		}
		w.DeflatedStrings(name, vals)
	}
	rows := 0
	for _, name := range []string{"table.ncols", "table.nrows", "table.rowwidth"} {
		n := tables
		if name == "table.rowwidth" {
			if b, err := r.Bytes(name); err != nil || len(b) == 0 {
				n = 0
			} else {
				n = rows
			}
		}
		col, err := r.Uints(name, n)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = col.At(i)
			if name == "table.nrows" {
				rows += int(vals[i])
			}
		}
		w.Uint32s(name, vals)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFormat2PinRecovers: a durable pin is user data, so a pin whose
// catalog is in format 2 (written before catalog format 3) is recovered by
// Open, and its pinned verify returns the Report a format-3 pin at the
// same version returns, byte for byte.
func TestFormat2PinRecovers(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{workload.USOpen1954Table(), workload.USOpen1959Table()} {
		if err := sys.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: "cases"}); err != nil {
		t.Fatal(err)
	}
	sys.SetSourceTrust("cases", 0.8)
	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// After the pin, the head moves on.
	if err := sys.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old")
	copyTree(t, data, old)
	rewriteAsCatalogFormat2(t, filepath.Join(old, "snapshots", fmt.Sprint(pin), "catalog.vaib"))

	pinned := func(dir string) []byte {
		t.Helper()
		s, err := Open(dir, durableOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		listed := false
		for _, snap := range s.Snapshots() {
			listed = listed || snap.Version == pin && snap.Pinned
		}
		if !listed {
			t.Fatalf("%s: pin %d not recovered (snapshots %+v)", filepath.Base(dir), pin, s.Snapshots())
		}
		rep, err := s.VerifyClaimAsOfCtx(context.Background(), "pinned", workload.GolfClaim(), pin)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AsOfVersion != pin || len(rep.Evidence) == 0 {
			t.Fatalf("%s: pinned report at %d with %d evidence, want at %d with some", filepath.Base(dir), rep.AsOfVersion, len(rep.Evidence), pin)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if format3, format2 := pinned(data), pinned(old); !bytes.Equal(format2, format3) {
		t.Errorf("pinned reports differ:\n format 2 %s\n format 3 %s", format2, format3)
	}
}

// TestFormat2PinReindexes: a durable pin whose index files were written at
// snapshot format 2 is recovered by Open, its view re-indexed in place of
// the files, and its pinned verify returns the Report a current pin at the
// same version returns, byte for byte.
func TestFormat2PinReindexes(t *testing.T) {
	pinReindexes(t, func(indexes string) {
		rewriteAsFormat2(t, indexes)
		setSnapshotFormat(t, indexes, 2)
	})
}

// TestFormat3PinReindexes is TestFormat2PinReindexes for a pin written at
// snapshot format 3: BM25 files this build could read, beside vector files
// it no longer does.
func TestFormat3PinReindexes(t *testing.T) {
	pinReindexes(t, func(indexes string) {
		if vs, err := filepath.Glob(filepath.Join(indexes, "vector-*.idx")); err != nil || len(vs) != 0 {
			t.Fatalf("the pin wrote vector files %v (%v)", vs, err)
		}
		files, err := filepath.Glob(filepath.Join(indexes, "bm25-*.idx"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no pinned bm25 index files: %v", err)
		}
		for _, path := range files {
			if err := os.WriteFile(strings.Replace(path, "bm25-", "vector-", 1), []byte(binfmt.Magic), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		setSnapshotFormat(t, indexes, 3)
	})
}

// pinReindexes pins a version, lets the head move on, and rewrites a copy
// of the data directory's pin by makeStale, given its index directory.
// Open must recover the rewritten pin, and its pinned verifies must return
// the Reports the untouched pin returns, byte for byte.
func pinReindexes(t *testing.T, makeStale func(indexes string)) {
	t.Helper()
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{workload.USOpen1954Table(), workload.USOpen1959Table()} {
		if err := sys.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []Triple{
		{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: "cases"},
		{Subject: "Tommy Bolt", Predicate: "born in", Object: "haworth", SourceID: "cases"},
	} {
		if err := sys.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	sys.SetSourceTrust("cases", 0.8)
	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// After the pin, the head moves on.
	if err := sys.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old")
	copyTree(t, data, old)
	makeStale(filepath.Join(old, "snapshots", fmt.Sprint(pin), "indexes"))

	pinned := func(dir string) []byte {
		t.Helper()
		s, err := Open(dir, durableOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		listed := false
		for _, snap := range s.Snapshots() {
			listed = listed || snap.Version == pin && snap.Pinned
		}
		if !listed {
			t.Fatalf("%s: pin %d not recovered (snapshots %+v)", filepath.Base(dir), pin, s.Snapshots())
		}
		ctx := context.Background()
		golf, err := s.VerifyClaimAsOfCtx(ctx, "pinned", workload.GolfClaim(), pin)
		if err != nil {
			t.Fatal(err)
		}
		prize, err := s.VerifyClaimTextAsOfCtx(ctx, "pinned-text",
			"In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.", pin)
		if err != nil {
			t.Fatal(err)
		}
		reports := []Report{golf, prize}
		for _, rep := range reports {
			if rep.AsOfVersion != pin || len(rep.Evidence) == 0 {
				t.Fatalf("%s: pinned report at %d with %d evidence, want at %d with some", filepath.Base(dir), rep.AsOfVersion, len(rep.Evidence), pin)
			}
		}
		b, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if current, stale := pinned(data), pinned(old); !bytes.Equal(stale, current) {
		t.Errorf("pinned reports differ:\n stale   %s\n current %s", stale, current)
	}
}

// TestRepinPersistsServedTrust: pinning a version that is already retained
// keeps its snapshot, trust overrides included, so the durable pin must
// persist that snapshot's trust — or a pinned Report changes across a
// restart. Two sequences reach such a pin: a checkpoint, a trust change
// and a pin; and a pin, a trust change and a second pin.
func TestRepinPersistsServedTrust(t *testing.T) {
	for name, retain := range map[string]func(*System) error{
		"checkpoint": func(s *System) error { _, err := s.Checkpoint(); return err },
		"pin":        func(s *System) error { _, err := s.PinSnapshot(); return err },
	} {
		t.Run(name, func(t *testing.T) {
			data := filepath.Join(t.TempDir(), "data")
			sys, err := Open(data, durableOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, tb := range []*Table{workload.USOpen1954Table(), workload.USOpen1959Table()} {
				if err := sys.AddTable(tb); err != nil {
					t.Fatal(err)
				}
			}
			sys.SetSourceTrust(workload.CaseSource, 0.8)
			if err := retain(sys); err != nil {
				t.Fatal(err)
			}
			sys.SetSourceTrust(workload.CaseSource, 0.3)
			pin, err := sys.PinSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			pinned := func(s *System) []byte {
				t.Helper()
				rep, err := s.VerifyClaimAsOfCtx(context.Background(), "pinned", workload.GolfClaim(), pin)
				if err != nil {
					t.Fatal(err)
				}
				if rep.AsOfVersion != pin || len(rep.Evidence) == 0 {
					t.Fatalf("pinned report at %d with %d evidence, want at %d with some", rep.AsOfVersion, len(rep.Evidence), pin)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			before := pinned(sys)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(data, durableOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if after := pinned(reopened); !bytes.Equal(before, after) {
				t.Errorf("pinned report changed across a restart:\n before %s\n after  %s", before, after)
			}
		})
	}
}
