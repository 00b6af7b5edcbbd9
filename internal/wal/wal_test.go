package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

func docRecord(v uint64, id string) Record {
	return Record{Version: v, Kind: KindDocument, Doc: &doc.Document{ID: id, Title: id, Text: "text of " + id}}
}

// openReplay opens dir collecting every replayed record.
func openReplay(t *testing.T, dir string, opts Options) (*Log, []Record) {
	t.Helper()
	var recs []Record
	l, err := Open(dir, opts, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openReplay(t, dir, Options{Sync: SyncNone})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}

	tbl := table.New("t1", "caption", []string{"a", "b"})
	tbl.MustAppendRow("1", "2")
	tbl.SourceID = "src"
	want := []Record{
		{Version: 1, Kind: KindTable, Table: tbl},
		docRecord(2, "d1"),
		{Version: 3, Kind: KindTriple, Triple: &kg.Triple{Subject: "s", Predicate: "p", Object: "o", SourceID: "src"}},
		{Version: 3, Kind: KindSource, Source: &datalake.Source{ID: "src", Name: "a source", TrustPrior: 0.7}},
	}
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := openReplay(t, dir, Options{Sync: SyncNone})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if got[0].Table.Caption != "caption" || len(got[0].Table.Rows) != 1 {
		t.Errorf("table record did not round-trip: %+v", got[0].Table)
	}
	if got[1].Doc.Text != "text of d1" {
		t.Errorf("doc record did not round-trip: %+v", got[1].Doc)
	}
	if got[2].Triple.Object != "o" {
		t.Errorf("triple record did not round-trip: %+v", got[2].Triple)
	}
	if got[3].Source.TrustPrior != 0.7 {
		t.Errorf("source record did not round-trip: %+v", got[3].Source)
	}
	if v := l2.Stats().LastVersion; v != 3 {
		t.Errorf("LastVersion = %d, want 3", v)
	}

	// Appending after replay continues the same log.
	if err := l2.Append(docRecord(4, "d2")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = openReplay(t, dir, Options{Sync: SyncNone})
	if len(got) != 5 || got[4].Version != 4 {
		t.Fatalf("after reopen+append, replayed %d records (last %+v)", len(got), got[len(got)-1])
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation roughly every record (binary doc
	// frames here are ~28 bytes).
	opts := Options{Sync: SyncNone, SegmentBytes: 24}
	l, _ := openReplay(t, dir, opts)
	for v := uint64(1); v <= 6; v++ {
		if err := l.Append(docRecord(v, "d")); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", st.Segments)
	}
	if st.Records != 6 {
		t.Fatalf("Records = %d, want 6", st.Records)
	}

	// A checkpoint at version 4 drops every sealed segment at or below it.
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(docRecord(7, "d")); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(4, sealed); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got := openReplay(t, dir, opts)
	for _, r := range got {
		if r.Version <= 4 {
			t.Errorf("replayed version %d, which the checkpoint should have truncated", r.Version)
		}
	}
	// Versions 5..7 live in segments not wholly covered by the checkpoint.
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (versions 5..7)", len(got))
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segmentPrefix) {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestTornTailDroppedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(docRecord(v, "d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop bytes off the final record, emulating a crash mid-append.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got := openReplay(t, dir, Options{Sync: SyncNone})
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	if st := l2.Stats(); st.TornBytes == 0 {
		t.Error("TornBytes = 0, want > 0")
	}
	// The torn bytes are physically gone: appends continue cleanly.
	if err := l2.Append(docRecord(3, "d-replacement")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = openReplay(t, dir, Options{Sync: SyncNone})
	if len(got) != 3 || got[2].Doc.ID != "d-replacement" {
		t.Fatalf("after torn-tail recovery + append, got %d records (last %+v)", len(got), got[len(got)-1])
	}
}

func TestCorruptMiddleFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(docRecord(v, "d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the middle of the segment.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Sync: SyncNone}, nil); err == nil {
		t.Fatal("Open succeeded over a corrupt middle record")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("error does not mention CRC: %v", err)
	}
}

func TestTornTailInSealedSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	if err := l.Append(docRecord(1, "d")); err != nil {
		t.Fatal(err)
	}
	sealed := lastSegment(t, dir)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(docRecord(2, "d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNone}, nil); err == nil {
		t.Fatal("Open succeeded over a truncated sealed segment")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openReplay(t, dir, Options{Sync: policy})
			for v := uint64(1); v <= 5; v++ {
				if err := l.Append(docRecord(v, "d")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, got := openReplay(t, dir, Options{Sync: policy})
			if len(got) != 5 {
				t.Fatalf("replayed %d records, want 5", len(got))
			}
		})
	}
}

// TestTruncateThroughMissingSegment checks a sealed segment whose file is
// already gone counts as truncated (and never leaves the segment table
// inconsistent).
func TestTruncateThroughMissingSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone, SegmentBytes: 24})
	for v := uint64(1); v <= 4; v++ {
		if err := l.Append(docRecord(v, "d")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", l.Stats().Segments)
	}
	// Delete the first sealed segment out-of-band.
	if err := os.Remove(segmentPath(dir, l.segs[0].seq)); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(4, l.segs[len(l.segs)-1].seq); err != nil {
		t.Fatalf("TruncateThrough over a missing segment: %v", err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("segments after truncate = %d, want 1 (the active one)", got)
	}
	if err := l.Append(docRecord(5, "d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("ParseSyncPolicy(bogus) succeeded")
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	if err := l.Append(docRecord(1, "d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantErr := os.ErrInvalid
	if _, err := Open(dir, Options{Sync: SyncNone}, func(Record) error { return wantErr }); err != wantErr {
		t.Fatalf("Open error = %v, want the callback's error", err)
	}
}
