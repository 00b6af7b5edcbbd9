package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/invindex"
	"repro/internal/workload"
)

// TestFormat4DirectoryReindexes opens testdata/format4/data, a data
// directory written by the release before snapshot format 5 (BM25 gaps at
// their block's widest width, int32 lengths, uint32 cumulative pair
// starts). It was made with that release's binaries:
//
//	lakegen -out L -tables 8 -texts 4
//	verifai serve -lake L -data-dir D -fsync always
//	POST /v1/snapshots {"action":"pin"}          pins version 77
//	POST /v1/ingest/table usopen-1954-revised     version 78
//	POST /v1/ingest/document furgol-note          version 79
//	SIGTERM                                       final checkpoint at 79
//
// and testdata/format4/reports.json holds, by name, the JSON of the
// Reports that release's Open returned on a copy of D. This build must
// re-index the head at open, re-index the pin on its first pinned read
// (its files no longer open), return the same Reports byte for byte,
// write format 5 at its next checkpoint, and reopen from that checkpoint's
// files without re-indexing.
func TestFormat4DirectoryReindexes(t *testing.T) {
	const pin = 77
	raw, err := os.ReadFile(filepath.Join("testdata", "format4", "reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "data")
	copyTree(t, filepath.Join("testdata", "format4", "data"), data)

	pinFile := filepath.Join(data, "snapshots", "77", "indexes", "bm25-tuple-000.idx")
	if _, err := invindex.OpenFile(pinFile); err == nil {
		t.Fatalf("%s, written at format 4, opens as a format-5 BM25 file", pinFile)
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
				t.Errorf("%s: report differs from the one the format-4 release returned:\n got %s\nwant %s", c.name, got, w.Bytes())
			}
		}
	}
	// open opens the directory; mapped says whether the head's BM25 files
	// must have been opened (else re-indexed).
	open := func(t *testing.T, mapped bool) *System {
		t.Helper()
		sys, err := Open(data, durableOpts(1))
		if err != nil {
			t.Fatalf("the directory did not open: %v", err)
		}
		if st := sys.Pipeline().Indexer().IndexStats(); (st.Families["bm25"].MappedBytes != 0) != mapped {
			t.Errorf("BM25 files mapped: %+v, want mapped %v", st.Families, mapped)
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
	if !bytes.Contains(meta, []byte(`"format": 5,`)) {
		t.Fatalf("the checkpoint wrote %s, want snapshot format 5", meta)
	}
	sys = open(t, true)
	defer sys.Close()
	verifies(t, sys)
}
