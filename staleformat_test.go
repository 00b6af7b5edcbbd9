package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/invindex"
	"repro/internal/textutil"
	"repro/internal/workload"
)

// TestFormat4DirectoryReindexes opens testdata/format4/data, a data
// directory written by the release before snapshot format 5 (BM25 gaps at
// their block's widest width, int32 lengths, uint32 cumulative pair
// starts), as staleDirectoryReindexes describes.
func TestFormat4DirectoryReindexes(t *testing.T) { staleDirectoryReindexes(t, "format4") }

// TestFormat5DirectoryReindexes opens testdata/format5/data, a data
// directory written by the release before snapshot format 6 (BM25 files
// holding their containers as they are in memory, not deflated), as
// staleDirectoryReindexes describes.
func TestFormat5DirectoryReindexes(t *testing.T) { staleDirectoryReindexes(t, "format5") }

// staleDirectoryReindexes opens testdata/<fixture>/data, a data directory
// an older release wrote with its own binaries:
//
//	lakegen -out L -tables 8 -texts 4
//	verifai serve -lake L -data-dir D -fsync always
//	POST /v1/snapshots {"action":"pin"}          pins version 77
//	POST /v1/ingest/table usopen-1954-revised     version 78
//	POST /v1/ingest/document furgol-note          version 79
//	SIGTERM                                       final checkpoint at 79
//
// and testdata/<fixture>/reports.json holds, by name, the JSON of the
// Reports that release's Open returned on a copy of D. This build must
// re-index the head at open, re-index the pin on its first pinned read
// (its files no longer open), return the same Reports byte for byte,
// write this build's format at its next checkpoint, and reopen from that
// checkpoint's files without re-indexing.
func staleDirectoryReindexes(t *testing.T, fixture string) {
	const pin = 77
	raw, err := os.ReadFile(filepath.Join("testdata", fixture, "reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "data")
	copyTree(t, filepath.Join("testdata", fixture, "data"), data)

	pinFile := filepath.Join(data, "snapshots", "77", "indexes", "bm25-tuple-000.idx")
	if _, _, err := invindex.OpenFile(pinFile, textutil.NewDict()); err == nil {
		t.Fatalf("%s, written by an older release, opens as a BM25 file of this one", pinFile)
	}

	furgol := "In 1954 u.s. open (golf), the money for ed furgol was 9000."
	verifies := func(t *testing.T, sys *System) {
		t.Helper()
		ctx := context.Background()
		// In the order the Reports were recorded in: each takes the next
		// lineage sequence number.
		for _, c := range []struct {
			name   string
			verify func() (Report, error)
		}{
			{"head golf", func() (Report, error) { return sys.VerifyClaim("golf", workload.GolfClaim()) }},
			{"head stomp", func() (Report, error) { return sys.VerifyClaim("stomp", workload.StompTheYardClaim()) }},
			{"head furgol", func() (Report, error) { return sys.VerifyClaimTextAsOfCtx(ctx, "furgol", furgol, 0) }},
			{"pin golf", func() (Report, error) { return sys.VerifyClaimAsOfCtx(ctx, "golf", workload.GolfClaim(), pin) }},
			{"pin furgol", func() (Report, error) { return sys.VerifyClaimTextAsOfCtx(ctx, "furgol", furgol, pin) }},
		} {
			rep, err := c.verify()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var w bytes.Buffer
			if err := json.Compact(&w, want[c.name]); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(got, w.Bytes()) {
				t.Errorf("%s: report differs from the one the %s release returned:\n got %s\nwant %s", c.name, fixture, got, w.Bytes())
			}
		}
	}
	// open opens the directory; opened says whether the head's BM25 files
	// must have been opened and the vector indexes derived from them (else
	// re-indexed).
	open := func(t *testing.T, opened bool) *System {
		t.Helper()
		sys, err := Open(data, durableOpts(1))
		if err != nil {
			t.Fatalf("the directory did not open: %v", err)
		}
		if st := sys.Pipeline().Indexer().IndexStats(); (st.DeriveMS != 0) != opened {
			t.Errorf("BM25 files opened: %+v, want opened %v", st, opened)
		}
		listed := false
		for _, snap := range sys.Snapshots() {
			listed = listed || snap.Version == pin && snap.Pinned
		}
		if !listed {
			t.Fatalf("pin %d not recovered (snapshots %+v)", pin, sys.Snapshots())
		}
		return sys
	}

	sys := open(t, false)
	verifies(t, sys)
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	meta, err := os.ReadFile(filepath.Join(data, "checkpoint", "indexes", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(meta, []byte(`"format": 6,`)) {
		t.Fatalf("the checkpoint wrote %s, want snapshot format 6", meta)
	}
	sys = open(t, true)
	defer sys.Close()
	verifies(t, sys)
}
