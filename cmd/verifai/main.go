// Command verifai verifies generated data against a multi-modal data lake
// from the command line.
//
// Subcommands:
//
//	verifai stats  -lake DIR
//	    print lake statistics
//	verifai claim  -lake DIR -text "In <caption>, the <attr> for <entity> was <value>."
//	    verify a textual claim against the lake's tables
//	verifai tuple  -lake DIR -table ID -row N -attr NAME [-value V]
//	    verify (or re-verify with an overridden value) one tuple attribute
//	verifai demo
//	    run the paper's Figure 1 and Figure 4 cases on the built-in case lake
//	verifai serve [-lake DIR] [-data-dir DIR] [-addr :8080] [-seed N] [-exact]
//	              [-ingest-queue N]
//	              [-verify-concurrency N] [-verify-timeout 30s]
//	              [-read-timeout 30s] [-read-header-timeout 5s]
//	              [-idle-timeout 2m] [-fsync always|interval|none]
//	              [-wal-format binary|json] [-checkpoint-every 5m]
//	              [-snapshot-retain N] [-debug-addr :6060]
//	    serve the verification pipeline as an HTTP JSON API over the live
//	    lake (reads keep being served while /v1/ingest/* writes arrive);
//	    ingestion is pipelined — embedding runs outside the lake's write
//	    lock and POST /v1/ingest/batch commits mixed batches under one
//	    lock acquisition; -ingest-queue bounds the in-flight ingest
//	    event queue. The verify endpoints are
//	    admission-controlled (-verify-concurrency; saturated requests
//	    answer 429) and deadline-bounded
//	    (-verify-timeout; expiry aborts the pipeline mid-flight and
//	    answers 504), accept ?version=N to read at a retained snapshot
//	    (-snapshot-retain bounds how many unpinned ones are kept),
//	    repeated identical verifications hit the versioned result cache,
//	    and the listener enforces read/header/idle timeouts so slow or
//	    idle clients cannot pin connections open. Without -data-dir the
//	    lake in -lake is served from memory. With -data-dir the lake is
//	    durable: every acknowledged write lands in a write-ahead log
//	    (-fsync, -wal-format) before it commits, checkpoints snapshot
//	    catalog+indexes (periodically with -checkpoint-every, on demand
//	    via POST /v1/admin/checkpoint, and at shutdown) without pausing
//	    ingestion — writers wait only for the short fork phase while the
//	    snapshot writes in the background — and a restart recovers
//	    everything. The data dir is flock-owned by one process (a second
//	    server fails fast). -lake seeds an empty data dir and is ignored
//	    by one that already has state; SIGINT/SIGTERM drains
//	    connections, checkpoints, and closes cleanly. Durable deployments
//	    also serve the change feed: GET /v1/changes streams the WAL
//	    (cursor-resumable, for followers and CDC consumers) and
//	    GET /v1/replica/checkpoint ships the latest checkpoint for
//	    follower bootstrap. Every serve deployment exposes GET /metrics
//	    (Prometheus text exposition) on the API listener; -debug-addr
//	    adds a side listener with /debug/pprof/*, /debug/traces (recent
//	    per-request stage traces), and a second /metrics, kept off the
//	    public API port.
//	verifai follow -leader URL -data-dir DIR [-addr :8081] [serve's flags
//	              except -lake and -snapshot-retain]
//	    run a read-only replica of the leader at URL: bootstrap from its
//	    checkpoint, stream its change feed, serve the same read API
//	    (verify with ?min_version= for read-your-writes, stats with a
//	    replication section, its own change feed); ingest endpoints
//	    answer 421 Misdirected Request naming the leader
//	verifai waldump [-data-dir DIR | FILE...]
//	    stream WAL segments as JSON lines on stdout (one record per
//	    line, `jq`-ready) regardless of the on-disk payload encoding —
//	    the debugging channel for logs written with -wal-format=binary
//
// The lake directory is produced by cmd/lakegen (or any tool writing the
// lakeio layout). Add -exact=false to enable the calibrated error profiles
// used by the experiments.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/genstore"
	"repro/internal/lakeio"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// logger is the process-wide structured logger: operational events from the
// serving path (and one line per HTTP request via server.WithLogger) go to
// stderr as logfmt-style key=value text.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "claim":
		err = runClaim(os.Args[2:])
	case "tuple":
		err = runTuple(os.Args[2:])
	case "demo":
		err = runDemo(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "follow":
		err = runFollow(os.Args[2:])
	case "waldump":
		err = runWaldump(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifai: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: verifai <stats|claim|tuple|demo|serve|follow|waldump> [flags]")
	os.Exit(2)
}

// commonFlags registers the flags shared by lake-based subcommands.
func commonFlags(fs *flag.FlagSet) (lakeDir *string, seed *uint64, exact *bool) {
	lakeDir = fs.String("lake", "", "lake directory from cmd/lakegen (required)")
	seed = fs.Uint64("seed", 1, "deterministic seed")
	exact = fs.Bool("exact", true, "exact reasoning (no calibrated error injection)")
	return
}

// baseOptions picks the reasoning profile: exact, or the calibrated error
// profiles used by the experiments.
func baseOptions(seed uint64, exact bool) verifai.Options {
	if exact {
		return verifai.ExactOptions(seed)
	}
	return verifai.DefaultOptions(seed)
}

func buildSystem(lakeDir string, opts verifai.Options, lakeOpts ...verifai.LakeOption) (*verifai.System, *verifai.Lake, error) {
	if lakeDir == "" {
		return nil, nil, fmt.Errorf("-lake is required")
	}
	lake, err := lakeio.Load(lakeDir, lakeOpts...)
	if err != nil {
		return nil, nil, err
	}
	sys, err := verifai.NewSystem(lake, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, lake, nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	lakeDir, _, _ := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *lakeDir == "" {
		return fmt.Errorf("-lake is required")
	}
	lake, err := lakeio.Load(*lakeDir)
	if err != nil {
		return err
	}
	s := lake.Stats()
	fmt.Printf("tables:   %d\ntuples:   %d\ntexts:    %d\ntriples:  %d\nentities: %d\nsources:  %d\n",
		s.Tables, s.Tuples, s.Docs, s.Triples, s.Entities, s.Sources)
	for _, src := range lake.Sources() {
		fmt.Printf("  source %-24s trust prior %.2f  (%s)\n", src.ID, src.TrustPrior, src.Name)
	}
	return nil
}

func runClaim(args []string) error {
	fs := flag.NewFlagSet("claim", flag.ExitOnError)
	lakeDir, seed, exact := commonFlags(fs)
	text := fs.String("text", "", "claim text (required)")
	withTexts := fs.Bool("texts", false, "also use text files as evidence")
	record := fs.String("record", "", "append the generation and verdict to this genstore JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *text == "" {
		return fmt.Errorf("-text is required")
	}
	sys, _, err := buildSystem(*lakeDir, baseOptions(*seed, *exact))
	if err != nil {
		return err
	}
	kinds := []verifai.Kind{verifai.KindTable}
	if *withTexts {
		kinds = append(kinds, verifai.KindText)
	}
	report, err := sys.VerifyClaimText("cli-claim", *text, kinds...)
	if err != nil {
		return err
	}
	printReport(report)
	if *record != "" {
		return recordGeneration(*record, "claim", *text, report, *lakeDir)
	}
	return nil
}

// recordGeneration appends a generation + verdict to a genstore JSON file,
// creating it when absent (the Section 5 "managing generated data" flow).
func recordGeneration(path, template, output string, report verifai.Report, lakeStamp string) error {
	store := verifai.NewGenerationStore()
	if data, err := os.ReadFile(path); err == nil {
		loaded, err := genstore.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("load genstore %s: %w", path, err)
		}
		store = loaded
	}
	id := fmt.Sprintf("gen-%06d", store.Len())
	if err := store.Record(verifai.Generation{ID: id, Template: template, Output: output}); err != nil {
		return err
	}
	if err := store.AddVerdict(id, verifai.VerdictEntry{
		Verdict:       report.Verdict.String(),
		Confidence:    report.Confidence,
		ProvenanceSeq: report.ProvenanceSeq,
		LakeStamp:     lakeStamp,
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := store.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write genstore %s: %w", path, err)
	}
	fmt.Printf("recorded as %s in %s\n", id, path)
	return nil
}

func runTuple(args []string) error {
	fs := flag.NewFlagSet("tuple", flag.ExitOnError)
	lakeDir, seed, exact := commonFlags(fs)
	tableID := fs.String("table", "", "table ID in the lake (required)")
	row := fs.Int("row", 0, "row index")
	attr := fs.String("attr", "", "attribute to verify (required)")
	value := fs.String("value", "", "override the attribute value (simulates a generated value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tableID == "" || *attr == "" {
		return fmt.Errorf("-table and -attr are required")
	}
	sys, lake, err := buildSystem(*lakeDir, baseOptions(*seed, *exact))
	if err != nil {
		return err
	}
	tbl, ok := lake.Table(*tableID)
	if !ok {
		return fmt.Errorf("table %q not in lake", *tableID)
	}
	tp, ok := tbl.TupleAt(*row)
	if !ok {
		return fmt.Errorf("row %d out of range (table has %d rows)", *row, tbl.NumRows())
	}
	if *value != "" {
		tp = tp.WithValue(*attr, *value)
	}
	fmt.Printf("verifying: %s\n\n", tp.String())
	report, err := sys.VerifyImputedTuple("cli-tuple", tp, *attr)
	if err != nil {
		return err
	}
	printReport(report)
	return nil
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "deterministic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lake := verifai.NewLake()
	lake.AddSource(verifai.Source{ID: workload.CaseSource, Name: "paper case studies", TrustPrior: 0.9})
	for _, t := range []*verifai.Table{
		workload.OhioDistrictsTable(), workload.FilmographyTable(),
		workload.USOpen1954Table(), workload.USOpen1959Table(),
	} {
		if err := lake.AddTable(t); err != nil {
			return err
		}
	}
	if err := lake.AddDocument(workload.MeaganGoodDoc()); err != nil {
		return err
	}
	sys, err := verifai.NewSystem(lake, verifai.ExactOptions(*seed))
	if err != nil {
		return err
	}

	fmt.Println("=== Figure 4: the golf prize-total claim ===")
	report, err := sys.VerifyClaim("demo-fig4", workload.GolfClaim())
	if err != nil {
		return err
	}
	fmt.Printf("claim: %s\n", workload.GolfClaim().Text)
	printReport(report)

	fmt.Println("\n=== Figure 1(a): imputed incumbent (wrong) ===")
	ohio := workload.OhioDistrictsTable()
	tp, _ := ohio.TupleAt(2)
	wrong := tp.WithValue("incumbent", "dave hobson")
	report, err = sys.VerifyImputedTuple("demo-fig1", wrong, "incumbent")
	if err != nil {
		return err
	}
	fmt.Printf("tuple: %s\n", wrong.String())
	printReport(report)
	return nil
}

func printReport(r verifai.Report) {
	fmt.Printf("verdict: %v (confidence %.2f)\n", r.Verdict, r.Confidence)
	for i, ev := range r.Evidence {
		fmt.Printf("  %d. %-28s %-12v [%s, trust %.2f]\n", i+1, ev.Instance.ID,
			ev.Result.Verdict, ev.Result.Verifier, ev.SourceTrust)
		fmt.Printf("     %s\n", ev.Result.Explanation)
	}
}

// serveFlags are the flags serve and follow share: how to build the system
// (reasoning profile, index layout, durability) and how to serve it
// (listeners, verify limits, timeouts).
type serveFlags struct {
	seed              uint64
	exact             bool
	addr              string
	ingestQueue       int
	verifyConcurrency int
	verifyTimeout     time.Duration
	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration
	dataDir           string
	fsync             string
	walFormat         string
	checkpointEvery   time.Duration
	debugAddr         string
}

func registerServeFlags(fs *flag.FlagSet, defaultAddr string) *serveFlags {
	f := &serveFlags{}
	fs.Uint64Var(&f.seed, "seed", 1, "deterministic seed")
	fs.BoolVar(&f.exact, "exact", true, "exact reasoning (no calibrated error injection)")
	fs.StringVar(&f.addr, "addr", defaultAddr, "listen address")
	fs.IntVar(&f.ingestQueue, "ingest-queue", 0, "bound on the in-flight ingest event queue (0 = default 256)")
	fs.IntVar(&f.verifyConcurrency, "verify-concurrency", 0, "max concurrently admitted verify requests; beyond it requests answer 429 (0 = 4x GOMAXPROCS, <0 = unlimited)")
	fs.DurationVar(&f.verifyTimeout, "verify-timeout", 30*time.Second, "per-request verification deadline; expiry aborts the pipeline and answers 504 (0 = client-bounded only)")
	fs.DurationVar(&f.readTimeout, "read-timeout", 30*time.Second, "max duration for reading an entire request, body included (0 = unlimited)")
	fs.DurationVar(&f.readHeaderTimeout, "read-header-timeout", 5*time.Second, "max duration for reading request headers; defeats slowloris clients (0 = falls back to -read-timeout)")
	fs.DurationVar(&f.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time between requests (0 = falls back to -read-timeout)")
	fs.StringVar(&f.dataDir, "data-dir", "", "durable data directory (WAL + checkpoints); serve: empty serves in-memory, follow: required")
	fs.StringVar(&f.fsync, "fsync", "interval", "WAL sync policy: always|interval|none (with -data-dir)")
	fs.StringVar(&f.walFormat, "wal-format", "binary", "WAL record payload encoding for new appends: binary|json (existing logs and the leader's stream are read under either; segments may mix)")
	fs.DurationVar(&f.checkpointEvery, "checkpoint-every", 0, "periodic checkpoint cadence, e.g. 5m (0 = only on shutdown and POST /v1/admin/checkpoint)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "side listener for /debug/pprof/*, /debug/traces, and /metrics (empty = disabled)")
	return f
}

// openOptions turns the flags into the options every way of assembling a
// system takes (buildSystem reads the embedded Options and LakeOptions).
func (f *serveFlags) openOptions() verifai.OpenOptions {
	opts := baseOptions(f.seed, f.exact)
	oo := verifai.OpenOptions{Options: opts, Sync: f.fsync, WALFormat: f.walFormat}
	if f.ingestQueue > 0 {
		oo.LakeOptions = append(oo.LakeOptions, verifai.WithIngestQueue(f.ingestQueue))
	}
	return oo
}

// serverOptions are the verify limits plus, on a durable system, the
// durability surfaces and the change feed: the WAL doubles as the feed, so
// followers and CDC consumers stream GET /v1/changes (bootstrapping from
// /v1/replica/checkpoint) — from a leader or, chained, from a follower,
// whose WAL mirrors its leader's.
func (f *serveFlags) serverOptions(sys *verifai.System) []server.Option {
	opts := []server.Option{server.WithVerifyTimeout(f.verifyTimeout)}
	if f.verifyConcurrency != 0 {
		opts = append(opts, server.WithVerifyConcurrency(f.verifyConcurrency))
	}
	if _, durable := sys.Durability(); !durable {
		return opts
	}
	opts = append(opts, server.WithDurability(
		func() verifai.DurabilityStats { st, _ := sys.Durability(); return st },
		sys.Checkpoint,
	))
	if wlog, floor, ckpt, format, ok := sys.ChangeFeed(); ok {
		opts = append(opts, server.WithChangeFeed(server.ChangeFeedConfig{
			Log: wlog, Floor: floor, CheckpointTar: ckpt, Format: format,
		}))
	}
	return opts
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	f := registerServeFlags(fs, ":8080")
	lakeDir := fs.String("lake", "", "lake directory from cmd/lakegen (required without -data-dir; seeds an empty -data-dir)")
	snapshotRetain := fs.Int("snapshot-retain", 0, "retained time-travel snapshots beyond explicit pins; older unpinned snapshots are collected (0 = default 8)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	openOpts := f.openOptions()
	if *snapshotRetain > 0 {
		openOpts.Pipeline.SnapshotRetain = *snapshotRetain
	}

	var sys *verifai.System
	var err error
	if f.dataDir != "" {
		sys, err = openDurable(f.dataDir, *lakeDir, openOpts)
	} else {
		sys, _, err = buildSystem(*lakeDir, openOpts.Options, openOpts.LakeOptions...)
	}
	if err != nil {
		return err
	}
	// Route POST /v1/snapshots through the system so durable mode persists
	// pins across restarts (in-memory mode they just live in the registry).
	serverOpts := append(f.serverOptions(sys), server.WithSnapshots(sys.PinSnapshot, sys.UnpinSnapshot))

	stats := sys.Pipeline().Lake().Stats()
	logger.Info("serving", "tables", stats.Tables, "texts", stats.Docs,
		"lake_version", sys.LakeVersion(), "addr", f.addr)
	return serveLoop(sys, f, serverOpts)
}

// serveLoop runs the HTTP server over an assembled system until
// SIGINT/SIGTERM, then drains connections, takes a final checkpoint
// (durable mode), and closes the system — the lifecycle shared by the
// serve (leader / standalone) and follow (replica) subcommands. A
// non-empty -debug-addr starts a side listener serving /debug/pprof/*,
// /debug/traces, and /metrics — a separate port so profiling and
// introspection never ride the public API surface.
func serveLoop(sys *verifai.System, f *serveFlags, serverOpts []server.Option) error {
	_, durable := sys.Durability()
	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests, take a final checkpoint (durable mode),
	// and close the system so no accepted write is lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every serve path shares the system's metric registry and the process
	// logger: the server records per-request metrics into the same registry
	// the lake/WAL/pipeline instruments write to, so GET /metrics is one
	// coherent scrape.
	serverOpts = append(serverOpts, server.WithObs(sys.Metrics()), server.WithLogger(logger))
	// The listener timeouts are the first line of defense against slow and
	// idle clients: without them a slowloris peer trickling header bytes —
	// or a connection that simply never sends anything — holds a
	// goroutine+FD forever. WriteTimeout stays 0: verification responses
	// are bounded by -verify-timeout, which cancels the work itself instead
	// of silently snapping the connection under it — and the change feed is
	// a deliberately long-lived streaming response.
	srv := &http.Server{
		Addr:              f.addr,
		Handler:           server.New(sys.Pipeline(), serverOpts...),
		ReadTimeout:       f.readTimeout,
		ReadHeaderTimeout: f.readHeaderTimeout,
		IdleTimeout:       f.idleTimeout,
	}

	if f.debugAddr != "" {
		dbg := &http.Server{Addr: f.debugAddr, Handler: obs.DebugHandler(sys.Metrics())}
		go func() {
			logger.Info("debug listener up", "addr", f.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", f.debugAddr, "err", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shctx)
		}()
	}

	if durable && f.checkpointEvery > 0 {
		go func() {
			t := time.NewTicker(f.checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// Checkpoints are two-phase and overlap ingestion, so the
					// ticker needs no drain; a tick landing while an admin- or
					// ticker-triggered checkpoint is still writing just skips
					// (the running one covers it).
					switch v, err := sys.Checkpoint(); {
					case errors.Is(err, verifai.ErrCheckpointInFlight):
						logger.Info("periodic checkpoint skipped: one already in flight")
					case err != nil:
						logger.Error("periodic checkpoint failed", "err", err)
					default:
						logger.Info("checkpoint complete", "lake_version", v)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("signal received; draining connections")
		shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(shctx)
	}()

	err := srv.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		sys.Close()
		return err
	}
	if serr := <-shutdownErr; serr != nil {
		logger.Warn("shutdown", "err", serr)
	}
	if durable {
		switch v, cerr := sys.Checkpoint(); {
		case errors.Is(cerr, verifai.ErrCheckpointInFlight):
			// Close waits the running checkpoint out before releasing the
			// data dir; anything it forked too early to cover is in the WAL.
			logger.Info("final checkpoint skipped: one already in flight (Close waits for it; WAL has the remainder)")
		case cerr != nil:
			logger.Error("final checkpoint failed (WAL still has everything)", "err", cerr)
		default:
			logger.Info("final checkpoint complete", "lake_version", v)
		}
	}
	return sys.Close()
}

// runFollow runs a read-only replica: it bootstraps -data-dir from the
// leader's checkpoint (when empty), streams the leader's change feed,
// and serves the same read API — verify, stats, and its own change feed —
// while ingest endpoints answer 421 pointing at the leader.
func runFollow(args []string) error {
	fs := flag.NewFlagSet("follow", flag.ExitOnError)
	f := registerServeFlags(fs, ":8081")
	leader := fs.String("leader", "", "leader base URL, e.g. http://leader:8080 (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leader == "" || f.dataDir == "" {
		return fmt.Errorf("-leader and -data-dir are required")
	}
	sys, err := verifai.OpenFollower(f.dataDir, *leader, f.openOptions())
	if err != nil {
		return err
	}
	serverOpts := append(f.serverOptions(sys),
		server.WithFollower(*leader),
		server.WithReplication(func() any { st, _ := sys.Replication(); return st }),
	)

	logger.Info("following", "leader", *leader, "lake_version", sys.LakeVersion(), "addr", f.addr)
	return serveLoop(sys, f, serverOpts)
}

// openDurable opens (or creates) the durable system under dataDir,
// recovering any previous state. A -lake directory seeds an empty data
// dir through the durable write path (so the seed data is itself logged
// and checkpointed); a non-empty data dir ignores -lake, since its own
// recovered state wins.
func openDurable(dataDir, lakeDir string, openOpts verifai.OpenOptions) (*verifai.System, error) {
	sys, err := verifai.Open(dataDir, openOpts)
	if err != nil {
		return nil, err
	}
	if sys.LakeVersion() > 0 || lakeDir == "" {
		if lakeDir != "" {
			logger.Info("data dir already has state; ignoring -lake",
				"data_dir", dataDir, "lake_version", sys.LakeVersion())
		} else {
			logger.Info("recovered data dir", "data_dir", dataDir, "lake_version", sys.LakeVersion())
		}
		return sys, nil
	}
	if err := seedFromLake(sys, lakeDir); err != nil {
		sys.Close()
		return nil, fmt.Errorf("seed from -lake: %w", err)
	}
	if v, err := sys.Checkpoint(); err != nil {
		logger.Error("post-seed checkpoint failed (WAL still has everything)", "err", err)
	} else {
		logger.Info("seeded and checkpointed", "data_dir", dataDir, "lake", lakeDir, "lake_version", v)
	}
	return sys, nil
}

// runWaldump streams WAL segments to stdout as JSON lines — one record per
// line in the legacy JSON payload shape — decoding either on-disk payload
// encoding. This is the jq-debugging channel for binary-format logs:
//
//	verifai waldump -data-dir /var/lib/verifai | jq 'select(.kind=="source")'
//
// It opens no Log (no lock, no torn-tail truncation), so it is safe to run
// against a live data directory; a torn tail is reported on stderr and
// skipped, exactly as recovery would drop it.
func runWaldump(args []string) error {
	fs := flag.NewFlagSet("waldump", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable data directory; dumps every segment under <data-dir>/wal in sequence order")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if *dataDir != "" {
		found, err := wal.SegmentFiles(filepath.Join(*dataDir, "wal"))
		if err != nil {
			return err
		}
		paths = append(found, paths...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("nothing to dump: pass -data-dir DIR or segment files")
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	for _, path := range paths {
		torn, err := wal.DumpSegment(path, func(rec wal.Record) error { return enc.Encode(rec) })
		if err != nil {
			return err
		}
		if torn > 0 {
			fmt.Fprintf(os.Stderr, "verifai: %s: %d-byte torn tail skipped (partial final append)\n", path, torn)
		}
	}
	return nil
}

// seedFromLake ingests a lakegen directory's contents through the durable
// system's batched write path.
func seedFromLake(sys *verifai.System, lakeDir string) error {
	seedLake, err := lakeio.Load(lakeDir)
	if err != nil {
		return err
	}
	defer seedLake.Close()
	lake := sys.Pipeline().Lake()
	for _, src := range seedLake.Sources() {
		if err := lake.AddSource(src); err != nil {
			return err
		}
	}
	var items []verifai.BatchItem
	for _, tid := range seedLake.TableIDs() {
		t, ok := seedLake.Table(tid)
		if !ok {
			return fmt.Errorf("table %q vanished from seed lake", tid)
		}
		items = append(items, verifai.BatchItem{Table: t})
	}
	for _, did := range seedLake.DocIDs() {
		d, ok := seedLake.Document(did)
		if !ok {
			return fmt.Errorf("document %q vanished from seed lake", did)
		}
		items = append(items, verifai.BatchItem{Doc: d})
	}
	for _, tr := range seedLake.Graph().Triples() {
		tr := tr
		items = append(items, verifai.BatchItem{Triple: &tr})
	}
	results, err := sys.AddBatch(items)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}
