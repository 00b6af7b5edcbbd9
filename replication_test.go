package verifai

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// newLeader opens a durable leader and serves its change feed over HTTP —
// the wiring `verifai serve -data-dir` uses.
func newLeader(t testing.TB, dir string) (*System, *httptest.Server) {
	return newLeaderFormat(t, dir, "")
}

// newLeaderFormat is newLeader with an explicit -wal-format, for the
// cross-format upgrade-path cases (a legacy JSON-log leader feeding a
// binary-default follower).
func newLeaderFormat(t testing.TB, dir, walFormat string) (*System, *httptest.Server) {
	t.Helper()
	sys, err := Open(dir, OpenOptions{Options: ExactOptions(1), Sync: "none", WALFormat: walFormat})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	wlog, floor, ckpt, format, ok := sys.ChangeFeed()
	if !ok {
		t.Fatal("durable leader reports no change feed")
	}
	ts := httptest.NewServer(server.New(sys.Pipeline(), server.WithChangeFeed(server.ChangeFeedConfig{
		Log: wlog, Floor: floor, CheckpointTar: ckpt, Format: format,
	})))
	t.Cleanup(ts.Close)
	return sys, ts
}

// waitReplicated blocks until the follower has applied every mutation
// through version v.
func waitReplicated(t testing.TB, sys *System, v uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Pipeline().WaitFresh(ctx, v); err != nil {
		st, _ := sys.Replication()
		t.Fatalf("follower did not reach version %d: %v (replication: %+v)", v, err, st)
	}
}

// TestReplicationEndToEnd is the acceptance case: a follower bootstrapped
// from the leader's checkpoint converges over the change feed, serves the
// identical verdict for a claim whose evidence was ingested after
// bootstrap, enforces read-only + read-your-writes over HTTP, and resumes
// cleanly from its durable cursor after a restart.
func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	leader, leaderSrv := newLeader(t, filepath.Join(dir, "leader"))
	if err := leader.Pipeline().Lake().AddSource(Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	ckptVersion, err := leader.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap: an empty follower pulls the checkpoint, not the full WAL.
	fdir := filepath.Join(dir, "follower")
	follower, err := OpenFollower(fdir, leaderSrv.URL, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			follower.Close()
		}
	}()
	if ds, ok := follower.Durability(); !ok || ds.CheckpointVersion != ckptVersion {
		t.Fatalf("follower checkpoint version = %+v, want bootstrap at %d", ds, ckptVersion)
	}

	// Evidence ingested after bootstrap arrives over the live stream.
	if err := leader.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	v := leader.LakeVersion()
	waitReplicated(t, follower, v)

	// Identical verdict on both roles for the post-bootstrap evidence
	// (Figure 1's wrongly imputed incumbent).
	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(2)
	wrong := tp.WithValue("incumbent", "dave hobson")
	lrep, err := leader.VerifyImputedTuple("e2e-fig1", wrong, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	frep, err := follower.VerifyImputedTuple("e2e-fig1", wrong, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Verdict != frep.Verdict || frep.Verdict != Refuted {
		t.Fatalf("leader verdict %v, follower verdict %v, want both Refuted", lrep.Verdict, frep.Verdict)
	}

	// Local writes on the follower are rejected; replication is the only
	// mutation path.
	if err := follower.AddDocument(&Document{ID: "local", Text: "x"}); !errors.Is(err, ErrReadOnlyFollower) {
		t.Fatalf("local follower write = %v, want ErrReadOnlyFollower", err)
	}

	// Follower HTTP: ?min_version= gives read-your-writes against the
	// leader's ingest ack, and ingest endpoints answer 421.
	fsrv := httptest.NewServer(server.New(follower.Pipeline(),
		server.WithFollower(leaderSrv.URL),
		server.WithReplication(func() any { st, _ := follower.Replication(); return st }),
	))
	body, _ := json.Marshal(server.TupleRequest{
		ID: "e2e-http", Caption: wrong.Caption, Columns: wrong.Columns, Values: wrong.Values, Attr: "incumbent",
	})
	resp, err := http.Post(fmt.Sprintf("%s/v1/verify/tuple?min_version=%d", fsrv.URL, v), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var vr server.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || vr.Verdict != "Refuted" {
		t.Fatalf("follower HTTP verify: status %d verdict %q", resp.StatusCode, vr.Verdict)
	}
	resp, err = http.Post(fsrv.URL+"/v1/ingest/document", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower HTTP ingest: status %d, want 421", resp.StatusCode)
	}
	fsrv.Close()

	// Restart mid-stream: close the follower, let the leader advance, and
	// reopen the same directory — the stream resumes from the durable
	// cursor with no gaps and no re-applied versions (a duplicate apply
	// would fail loudly on the duplicate IDs).
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	if err := leader.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: workload.CaseSource}); err != nil {
		t.Fatal(err)
	}
	v2 := leader.LakeVersion()

	resumed, err := OpenFollower(fdir, leaderSrv.URL, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	waitReplicated(t, resumed, v2)
	if got := resumed.LakeVersion(); got != v2 {
		t.Fatalf("resumed follower at version %d, leader at %d", got, v2)
	}
	st, ok := resumed.Replication()
	if !ok || !st.Running || st.LastError != "" {
		t.Fatalf("resumed replication stats = %+v, want running with no error", st)
	}
	// The resumed follower serves evidence from checkpoint, pre-restart
	// stream, and post-restart stream alike.
	rep, err := resumed.VerifyClaim("e2e-golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Refuted {
		t.Fatalf("resumed follower golf verdict = %v, want Refuted", rep.Verdict)
	}
	lstats, fstats := leader.Pipeline().Lake().Stats(), resumed.Pipeline().Lake().Stats()
	if lstats != fstats {
		t.Fatalf("catalogs diverged: leader %+v follower %+v", lstats, fstats)
	}
}

// TestReplicationEndToEndCrossFormat is the upgrade-path acceptance case:
// a leader still writing the legacy JSON log feeds a follower running the
// binary default. The change feed carries the leader's encoding, the
// follower re-logs applies in its own; nothing negotiates and nothing
// migrates — the self-describing payload tag is the whole protocol.
func TestReplicationEndToEndCrossFormat(t *testing.T) {
	dir := t.TempDir()
	leader, leaderSrv := newLeaderFormat(t, filepath.Join(dir, "leader"), "json")
	if err := leader.Pipeline().Lake().AddSource(Source{ID: workload.CaseSource, Name: "cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Follower: binary default (WALFormat unset).
	fdir := filepath.Join(dir, "follower")
	follower, err := OpenFollower(fdir, leaderSrv.URL, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			follower.Close()
		}
	}()

	// Post-bootstrap evidence crosses the JSON wire into the binary log.
	if err := leader.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	v := leader.LakeVersion()
	waitReplicated(t, follower, v)

	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(2)
	wrong := tp.WithValue("incumbent", "dave hobson")
	lrep, err := leader.VerifyImputedTuple("xfmt-fig1", wrong, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	frep, err := follower.VerifyImputedTuple("xfmt-fig1", wrong, "incumbent")
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Verdict != frep.Verdict || frep.Verdict != Refuted {
		t.Fatalf("leader verdict %v, follower verdict %v, want both Refuted", lrep.Verdict, frep.Verdict)
	}

	// Restart the follower: its own (binary) WAL replays and the stream
	// resumes from the durable cursor against the JSON leader.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	if err := leader.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: workload.CaseSource}); err != nil {
		t.Fatal(err)
	}
	v2 := leader.LakeVersion()

	resumed, err := OpenFollower(fdir, leaderSrv.URL, OpenOptions{Options: ExactOptions(1), Sync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	waitReplicated(t, resumed, v2)
	lstats, fstats := leader.Pipeline().Lake().Stats(), resumed.Pipeline().Lake().Stats()
	if lstats != fstats {
		t.Fatalf("catalogs diverged across formats: leader %+v follower %+v", lstats, fstats)
	}
}

// BenchmarkReplicationLag measures leader ingest throughput with followers
// attached and the apply lag from leader commit to follower visibility.
// The lag percentiles are reported as lag-* metrics: a record, not a
// gate (wall-clock lag is too environment-dependent to gate a CI run on).
func BenchmarkReplicationLag(b *testing.B) {
	for _, followers := range []int{1, 2} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			dir := b.TempDir()
			leader, leaderSrv := newLeader(b, filepath.Join(dir, "leader"))
			if err := leader.Pipeline().Lake().AddSource(Source{ID: "bench", Name: "bench", TrustPrior: 0.9}); err != nil {
				b.Fatal(err)
			}
			reps := make([]*System, followers)
			for i := range reps {
				f, err := OpenFollower(filepath.Join(dir, fmt.Sprintf("f%d", i)), leaderSrv.URL,
					OpenOptions{Options: ExactOptions(1), Sync: "none"})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { f.Close() })
				reps[i] = f
			}

			lags := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := leader.AddDocument(&Document{
					ID:       fmt.Sprintf("bench-doc-%d", i),
					Text:     "replication lag benchmark body with some searchable words",
					SourceID: "bench",
				}); err != nil {
					b.Fatal(err)
				}
				v := leader.LakeVersion()
				for _, f := range reps {
					waitReplicated(b, f, v)
				}
				lags = append(lags, time.Since(t0))
			}
			elapsed := time.Since(start)
			b.StopTimer()

			sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/sec")
			b.ReportMetric(float64(lags[len(lags)/2].Nanoseconds()), "lag-p50-ns")
			b.ReportMetric(float64(lags[len(lags)*99/100].Nanoseconds()), "lag-p99-ns")
		})
	}
}
