// Package verifai is the public API of this reproduction of "VerifAI:
// Verified Generative AI" (Tang, Yang, Fan, Cao, Luo, Halevy; CIDR 2024).
//
// VerifAI verifies the outputs of generative AI — imputed tuples and
// textual claims — against a multi-modal data lake of tables, text files,
// and knowledge-graph entities. The pipeline has three modules (Figures 2
// and 3 of the paper):
//
//   - Indexer: task-agnostic retrieval with a content-based (BM25,
//     standing in for Elasticsearch) and a semantic-based (dense vectors,
//     standing in for BERT+Faiss) index, merged by a Combiner;
//   - Reranker: task-aware rescoring (ColBERT-style late interaction for
//     text, OpenTFV-style for claim/table, RetClean-style for tuples) down
//     to a small top-k′;
//   - Verifier: per-evidence verify(g, x) → Verified | Refuted | NotRelated
//     decided by an Agent that routes to local models (PASTA for
//     claim/table, a RoBERTa-style matcher for tuple/tuple) or the
//     one-size-fits-all LLM verifier.
//
// Cross-cutting concerns from the paper's challenges are built in: source
// trust estimation (C3) weights the final verdict, and every run records
// full provenance (C4).
//
// The lake is live: the paper frames the Indexer as a service over a
// growing multi-modal data lake, and this implementation matches it.
// System.AddTable, System.AddDocument, and System.AddTriple ingest new
// instances at any time — they are indexed incrementally (no rebuild) and
// become retrievable and verifiable immediately, while concurrent
// verifications keep being served. Every mutation bumps a monotonic lake
// version (System.LakeVersion) that consumers can use to reason about
// index freshness. Each verification runs on its caller's goroutine:
// concurrent requests are the parallel unit.
//
// Systems built with NewSystem are in-memory. Open instead binds the
// system to a data directory with a write-ahead log and checkpoints:
// every acknowledged write survives a process crash, Checkpoint bounds
// recovery time, and reopening the directory recovers the full lake and
// its indexes (see the README's "Durability & operations").
//
// # Quick start
//
//	lake := verifai.NewLake()
//	lake.AddSource(verifai.Source{ID: "web", Name: "web tables"})
//	_ = lake.AddTable(t) // *verifai.Table
//	sys, err := verifai.NewSystem(lake, verifai.DefaultOptions(42))
//	report, err := sys.VerifyClaimText("c1", "In 1954 u.s. open (golf), ...")
//	fmt.Println(report.Verdict, report.Evidence[0].Result.Explanation)
//
//	// Live ingestion: index a table added after system construction.
//	_ = sys.AddTable(t2)
//	report, err = sys.VerifyClaimText("c2", "In <t2's caption>, ...")
package verifai

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/claims"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
	"repro/internal/wal"
)

// Re-exported data-model types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Lake is the multi-modal data lake catalog.
	Lake = datalake.Lake
	// Source describes a dataset contributing instances to the lake.
	Source = datalake.Source
	// Instance is a resolved lake data instance.
	Instance = datalake.Instance
	// Kind classifies lake instances (table, tuple, text, entity).
	Kind = datalake.Kind
	// Table is a web-table style relation.
	Table = table.Table
	// Tuple is one row of a table with its context.
	Tuple = table.Tuple
	// Document is a text file in the lake.
	Document = doc.Document
	// Triple is a knowledge-graph statement.
	Triple = kg.Triple
	// Claim is a structured textual claim.
	Claim = claims.Claim
	// Generated is a generated data object under verification.
	Generated = verify.Generated
	// Verdict is the ternary verification outcome.
	Verdict = verify.Verdict
	// Result is one verifier decision.
	Result = verify.Result
	// Report is the end-to-end verification outcome for one object.
	Report = core.Report
	// Evidence is one verified evidence instance within a Report.
	Evidence = core.Evidence
	// ProvenanceStore records verification lineage.
	ProvenanceStore = provenance.Store
	// BatchItem is one mutation in a System.AddBatch call (exactly one of
	// Table, Doc, or Triple set).
	BatchItem = datalake.BatchItem
	// BatchItemResult is the per-item outcome of a System.AddBatch call.
	BatchItemResult = datalake.BatchItemResult
)

// Verdict values.
const (
	Verified   = verify.Verified
	Refuted    = verify.Refuted
	NotRelated = verify.NotRelated
)

// Instance kinds.
const (
	KindTable  = datalake.KindTable
	KindTuple  = datalake.KindTuple
	KindText   = datalake.KindText
	KindEntity = datalake.KindEntity
)

// NewLake returns an empty multi-modal data lake.
func NewLake() *Lake { return datalake.New() }

// NewTable returns an empty table with the given caption and schema, ready
// for Table.AppendRow and lake ingestion.
func NewTable(id, caption string, columns []string) *Table {
	return table.New(id, caption, columns)
}

// NewClaimObject wraps a structured claim as a generated data object for
// retrieval and verification. id stably identifies the object in provenance.
func NewClaimObject(id string, c Claim) Generated {
	if c.Text == "" {
		c.Render()
	}
	return verify.NewClaimObject(id, c)
}

// NewTupleObject wraps a generated/imputed tuple as a generated data object;
// attr is the attribute under verification.
func NewTupleObject(id string, tp Tuple, attr string) Generated {
	return verify.NewTupleObject(id, tp, attr)
}

// ParseClaim recovers a structured claim from natural-language text.
func ParseClaim(text string) (Claim, error) { return claims.Parse(text) }

// Options configures a System.
type Options struct {
	// Seed drives every deterministic simulation and index layout choice.
	Seed uint64
	// Indexer overrides index construction; zero value means defaults.
	Indexer core.IndexerConfig
	// Pipeline overrides retrieval depths and caching; zero value means
	// the paper's defaults (k=100, k′=5).
	Pipeline core.PipelineConfig
	// LLM is the simulated one-size-fits-all verifier profile; zero value
	// means the calibrated defaults.
	LLM verify.LLMConfig
	// Pasta is the simulated local (text, table) verifier profile; zero
	// value means the calibrated defaults.
	Pasta verify.PastaConfig
	// UseLocalVerifiers registers the local models with the Agent (the
	// paper's privacy/accuracy motivated mode). Off by default, matching
	// the paper's "ChatGPT can be used by default for simplicity": PASTA is
	// binary-output and guesses on unrelated retrieved evidence (its 0.72
	// accuracy in Table 2), so it belongs in flows where evidence is known
	// to be relevant or privacy forbids the hosted model.
	UseLocalVerifiers bool
}

// DefaultOptions returns the paper-faithful configuration: both index
// families over all modalities, the LLM verifier as the default decision
// model. (Every System records provenance.)
func DefaultOptions(seed uint64) Options {
	return Options{
		Seed:     seed,
		Indexer:  core.DefaultIndexerConfig(seed),
		Pipeline: core.DefaultPipelineConfig(),
		LLM:      verify.DefaultLLMConfig(seed),
		Pasta:    verify.DefaultPastaConfig(seed),
	}
}

// ExactOptions returns DefaultOptions with the calibrated error injection
// disabled: verifiers reason exactly over evidence. The calibrated defaults
// exist to reproduce the paper's measured model accuracy (Table 2); exact
// reasoning is what a deployment wants, and what the case-study figures
// demonstrate.
func ExactOptions(seed uint64) Options {
	o := DefaultOptions(seed)
	// Seed is forced non-zero so the config is not mistaken for the zero
	// value (which NewSystem replaces with the calibrated defaults); with
	// all error rates zero the seed is never consulted anyway.
	o.LLM = verify.LLMConfig{Seed: seed | 1}
	o.Pasta = verify.PastaConfig{Seed: seed | 1, UnrelatedRefuteProb: 0.5}
	return o
}

// System is an assembled VerifAI pipeline over a lake.
type System struct {
	pipeline *core.Pipeline
	options  Options
	// obs is the system's metrics registry: every layer (lake, WAL,
	// checkpoints, retrieval, verifier, caches) registers into it at
	// assembly. Serve it via server.WithObs / GET /metrics.
	obs *obs.Registry
	// durable is non-nil for systems opened with Open: the data directory
	// holding the write-ahead log and checkpoints.
	durable *durable.Store
	// follower is non-nil for systems opened with OpenFollower: the
	// replication streaming loop.
	follower *follower
}

// Metrics returns the system's metrics registry — the single place every
// layer's counters and latency histograms live. Pass it to server.WithObs
// so GET /metrics exposes the whole system, or to obs.DebugHandler for a
// side listener with pprof and recent traces.
func (s *System) Metrics() *obs.Registry { return s.obs }

// OpenOptions configures a durable system.
type OpenOptions struct {
	// Options is the pipeline configuration, exactly as for NewSystem.
	Options
	// Sync selects the WAL sync policy: "always" (fsync every commit),
	// "interval" (background fsync; the default), or "none" (OS-paced).
	Sync string
	// WALFormat selects the payload encoding for newly appended WAL
	// records: "binary" (compact, the default) or "json" (legacy,
	// grep-able). Existing logs replay under either setting — record
	// payloads are self-describing, so switching needs no migration and
	// segments may mix encodings.
	WALFormat string
}

// DefaultOpenOptions is DefaultOptions plus the default durability
// posture (interval fsync).
func DefaultOpenOptions(seed uint64) OpenOptions {
	return OpenOptions{Options: DefaultOptions(seed), Sync: "interval"}
}

// Open recovers (or creates) a durable system in the data directory dir:
//
//  1. the latest checkpoint's catalog is loaded and the lake's version
//     counter fast-forwarded to the checkpoint version;
//  2. the indexer is built from the checkpoint's index snapshot when it
//     matches the configuration, otherwise by re-indexing the catalog;
//  3. the write-ahead log's tail — every record past the checkpoint — is
//     replayed through the normal batch-ingest path, so the indexes
//     absorb it exactly as they would live traffic (a torn final record,
//     necessarily unacknowledged, is dropped; corruption elsewhere fails
//     the open);
//  4. the durability hooks are armed: from here on every acknowledged
//     write is in the log before it commits;
//  5. a head checkpoint in an older format than this build writes (its
//     catalog, or its index files, which step 2 re-indexed) is
//     checkpointed again, so the next Open does no upgrade work.
//
// The directory is owned by one process at a time, enforced with a
// cross-process file lock: a second Open fails fast with ErrDataDirLocked.
// Close the system to release it (a crashed process's lock is released by
// the kernel); Checkpoint periodically to bound recovery time and log
// size — checkpoints overlap ingestion, so a tight cadence is safe.
func Open(dir string, opts OpenOptions) (*System, error) {
	sys, stale, err := openDurable(dir, opts, false)
	if err != nil {
		return nil, err
	}
	if err := recoverPins(sys, sys.durable); err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("verifai: recover pinned snapshots: %w", err)
	}
	// A head written in an older format is upgraded here, once: the next
	// open reads this build's catalog and index files and rebuilds nothing.
	if stale {
		if _, err := sys.Checkpoint(); err != nil {
			_ = sys.Close()
			return nil, fmt.Errorf("verifai: upgrade checkpoint: %w", err)
		}
	}
	return sys, nil
}

// openDurable is the open both Open and OpenFollower share: it opens the
// data directory, assembles a system over its lake, replays the WAL tail
// and arms the durability hooks. readOnly (a follower) marks the lake
// read-only before anything can write, so replication — ReplayTail
// included — is the only mutation path. On error everything it opened is
// closed again. stale reports a head checkpoint in an older format than
// this build writes: its catalog (durable.Store.StaleCatalog) or its index
// files, which were re-indexed (core.ErrStaleFormat).
func openDurable(dir string, opts OpenOptions, readOnly bool) (sys *System, stale bool, err error) {
	policy, err := wal.ParseSyncPolicy(opts.Sync)
	if err != nil {
		return nil, false, fmt.Errorf("verifai: %w", err)
	}
	format, err := wal.ParseFormat(opts.WALFormat)
	if err != nil {
		return nil, false, fmt.Errorf("verifai: %w", err)
	}
	st, err := durable.Open(dir, durable.Options{
		Sync: policy, WALFormat: format,
	})
	if err != nil {
		return nil, false, fmt.Errorf("verifai: %w", err)
	}
	st.Lake().SetReadOnly(readOnly)
	sys, staleIndexes, err := newSystem(st.Lake(), opts.Options, st.IndexSnapshotDir())
	if err != nil {
		_ = st.Lake().Close()
		_ = st.Close()
		return nil, false, err
	}
	sys.durable = st
	st.SetMetrics(sys.Metrics())
	if err := st.ReplayTail(); err != nil {
		_ = sys.Close()
		return nil, false, fmt.Errorf("verifai: %w", err)
	}
	st.Arm()
	return sys, st.StaleCatalog() || staleIndexes, nil
}

// recoverPins re-registers every persisted pinned snapshot with the
// pipeline's registry: each pin directory's catalog is reloaded into a
// throwaway lake, fast-forwarded to the pin version, forked into an
// immutable View, and bound to the persisted index shards and pin-time
// trust map. A pin whose shards no longer match the indexer configuration
// is skipped (left on disk: reverting the configuration brings it back) —
// serving it would break the reproducibility contract.
func recoverPins(sys *System, st *durable.Store) error {
	pins, err := st.RecoverPins()
	if err != nil {
		return err
	}
	for _, pin := range pins {
		pinLake, err := st.LoadCatalog(pin.Dir)
		if err != nil {
			return fmt.Errorf("load pin %d catalog: %w", pin.Version, err)
		}
		if err := pinLake.FastForwardVersion(pin.Version); err != nil {
			pinLake.Close()
			return fmt.Errorf("pin %d behind its own catalog: %w", pin.Version, err)
		}
		view, err := pinLake.Fork(nil)
		pinLake.Close()
		if err != nil {
			return fmt.Errorf("fork pin %d view: %w", pin.Version, err)
		}
		if _, err := sys.pipeline.RegisterRecoveredSnapshot(view, filepath.Join(pin.Dir, "indexes"), pin.Trust); err != nil {
			if errors.Is(err, core.ErrSnapshotMismatch) {
				continue
			}
			return fmt.Errorf("register pin %d: %w", pin.Version, err)
		}
	}
	return nil
}

// Checkpoint captures a durable snapshot — catalog plus index state — and
// truncates the write-ahead log segments it covers, returning the lake
// version it captured. Checkpoints are two-phase and do not block
// ingestion: writers wait only for the short quiesced fork (what is left
// of the tail sealed, catalog view pinned, BM25 shards folded and vector
// shards forked in memory, WAL rotated), while the long serialization
// and atomic swap overlap normal traffic. Sealing does not wait for a
// checkpoint: the lake seals its tables and documents, and the indexes
// their deltas, off the Go heap whenever the payload written since the
// last seal passes datalake.SealBytes. A checkpoint is still a flush for
// BM25: each running BM25 index is folded into the one segment its shard
// file holds, and keeps searching it. Every checkpoint also leaves an
// unpinned time-travel snapshot in the keep-last-N window: the forked
// view and the trust overrides, not the index capture, which is dropped
// once written, so the snapshot pins no segment the head later merges
// away; the first read at its version re-indexes the view. A
// concurrent Checkpoint fails fast with ErrCheckpointInFlight (the
// in-flight one covers it). Only systems opened with Open can checkpoint.
func (s *System) Checkpoint() (uint64, error) {
	if s.durable == nil {
		return 0, fmt.Errorf("verifai: system has no data directory (use Open)")
	}
	return s.durable.Checkpoint(func(view *datalake.View) (durable.WriteFunc, error) {
		frozen := s.pipeline.Indexer().Freeze()
		s.pipeline.RegisterCheckpoint(view)
		return func(fs faultfs.FS, dir string) error {
			return frozen.Save(fs, filepath.Join(dir, "indexes"), view.Version())
		}, nil
	})
}

// SnapshotInfo describes one retained time-travel snapshot.
type SnapshotInfo = datalake.SnapshotInfo

// ErrSnapshotNotFound reports a time-travel read at a version no retained
// snapshot covers; detect it with errors.Is.
var ErrSnapshotNotFound = datalake.ErrSnapshotNotFound

// PinSnapshot freezes the lake and indexes at the current version and
// retains the pair as an explicitly pinned snapshot: a verify as of the
// returned version reproduces today's verdicts forever (until
// UnpinSnapshot), no matter what is ingested or how trust is re-weighted
// in the meantime. On durable systems the pin also survives restarts: its
// catalog, index shards, and pin-time trust overrides are persisted under
// <dir>/snapshots and re-registered by Open. Unpinned snapshots are also
// retained automatically — every Checkpoint leaves one in a keep-last-N
// window (Options.Pipeline.SnapshotRetain) — but only pins are durable,
// and only pins hold an index capture: pinning a version a checkpoint's
// snapshot retains keeps that snapshot's trust overrides and hands it
// the pin's capture, so its reads do not re-index the view.
func (s *System) PinSnapshot() (uint64, error) {
	var persist func(view *datalake.View, writeIndexes func(fs faultfs.FS, dir string) error, trust map[string]float64) error
	if s.durable != nil {
		persist = s.durable.PersistPin
	}
	snap, err := s.pipeline.PinSnapshot(persist)
	if err != nil {
		return 0, fmt.Errorf("verifai: pin snapshot: %w", err)
	}
	return snap.Version(), nil
}

// UnpinSnapshot releases an explicit pin: the snapshot rejoins the
// keep-last-N retention window (and may be collected immediately), and on
// durable systems its persisted copy is removed first — an unpin that
// cannot durably stick is reported, with the pin intact. In-flight
// readers at the version finish unharmed.
func (s *System) UnpinSnapshot(version uint64) error {
	if s.durable != nil {
		if err := s.durable.DropPin(version); err != nil {
			return fmt.Errorf("verifai: unpin snapshot: %w", err)
		}
	}
	if err := s.pipeline.Snapshots().Unpin(version); err != nil {
		return fmt.Errorf("verifai: unpin snapshot: %w", err)
	}
	return nil
}

// Snapshots lists the retained time-travel snapshots, oldest first.
func (s *System) Snapshots() []SnapshotInfo { return s.pipeline.Snapshots().List() }

// ErrCheckpointInFlight reports a Checkpoint call that overlapped another;
// detect it with errors.Is and skip (the running checkpoint covers it).
var ErrCheckpointInFlight = durable.ErrCheckpointInFlight

// ErrDataDirLocked reports an Open of a data directory another process
// owns; detect it with errors.Is.
var ErrDataDirLocked = durable.ErrLocked

// DurabilityStats describes a durable system's posture (data directory,
// sync policy, checkpoint version, WAL shape).
type DurabilityStats = durable.Stats

// Durability reports the durable store's stats; ok is false for purely
// in-memory systems (NewSystem).
func (s *System) Durability() (DurabilityStats, bool) {
	if s.durable == nil {
		return DurabilityStats{}, false
	}
	return s.durable.Stats(), true
}

// NewSystem indexes the lake's current contents and assembles the
// verification pipeline. The lake stays live: data added afterwards —
// through System.AddTable/AddDocument/AddTriple or directly on the lake —
// is indexed incrementally and becomes retrievable without a rebuild.
func NewSystem(lake *Lake, opts Options) (*System, error) {
	sys, _, err := newSystem(lake, opts, "")
	return sys, err
}

// newSystem is NewSystem with an optional index-snapshot directory: when
// given (the durable Open path), the indexer loads persisted index shards
// instead of re-tokenizing and re-embedding the lake — falling back to the
// bulk rebuild when the snapshot is missing or stale; staleIndexes reports
// a rebuild because the snapshot was in another format.
func newSystem(lake *Lake, opts Options, snapshotDir string) (_ *System, staleIndexes bool, _ error) {
	if lake == nil {
		return nil, false, fmt.Errorf("verifai: nil lake")
	}
	if opts.Indexer.EmbedDim == 0 {
		opts.Indexer = core.DefaultIndexerConfig(opts.Seed)
	}
	if opts.Pipeline.TopK == 0 {
		opts.Pipeline = core.DefaultPipelineConfig()
	}
	// One registry per system: the pipeline, indexer, and lake all register
	// into it here; the durable store and follower loop join in Open /
	// OpenFollower. A caller-provided Pipeline.Metrics is honored.
	reg := opts.Pipeline.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		opts.Pipeline.Metrics = reg
	}
	if opts.LLM == (verify.LLMConfig{}) {
		opts.LLM = verify.DefaultLLMConfig(opts.Seed)
	}
	if opts.Pasta == (verify.PastaConfig{}) {
		opts.Pasta = verify.DefaultPastaConfig(opts.Seed)
	}

	var indexer *core.Indexer
	var err error
	if snapshotDir != "" {
		indexer, err = core.BuildIndexerFromSnapshot(lake, opts.Indexer, snapshotDir)
		if err != nil && !errors.Is(err, core.ErrSnapshotMismatch) {
			return nil, false, fmt.Errorf("verifai: load index snapshot: %w", err)
		}
		staleIndexes = errors.Is(err, core.ErrStaleFormat)
	}
	if indexer == nil {
		indexer, err = core.BuildIndexer(lake, opts.Indexer)
	}
	if err != nil {
		return nil, false, fmt.Errorf("verifai: build indexer: %w", err)
	}
	registry := rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 256))

	var agentOpts []verify.AgentOption
	if opts.UseLocalVerifiers {
		agentOpts = append(agentOpts,
			verify.WithLocalVerifier(verify.NewPastaVerifier(opts.Pasta)),
			verify.WithLocalVerifier(verify.NewTupleVerifier()),
		)
	}
	agent := verify.NewAgent(verify.NewLLMVerifier(opts.LLM), agentOpts...)

	pipeline, err := core.NewPipeline(lake, indexer, registry, agent, provenance.NewStore(), nil, opts.Pipeline)
	if err != nil {
		return nil, false, fmt.Errorf("verifai: assemble pipeline: %w", err)
	}
	lake.SetMetrics(reg)
	return &System{pipeline: pipeline, options: opts, obs: reg}, staleIndexes, nil
}

// Pipeline exposes the underlying pipeline for advanced use (experiments,
// ablations).
func (s *System) Pipeline() *core.Pipeline { return s.pipeline }

// Provenance returns the lineage store (challenge C4): a System always
// records lineage.
func (s *System) Provenance() *ProvenanceStore { return s.pipeline.Provenance() }

// SetSourceTrust overrides a source's trust weight, e.g. from
// trust.Estimate.
func (s *System) SetSourceTrust(sourceID string, t float64) {
	s.pipeline.SetSourceTrust(sourceID, t)
}

// AddTable ingests a table into the live lake. It is indexed incrementally
// and becomes retrievable and verifiable immediately; safe to call while
// verifications are in flight.
func (s *System) AddTable(t *Table) error { return s.pipeline.Lake().AddTable(t) }

// AddDocument ingests a text document into the live lake. It is indexed
// incrementally and becomes retrievable and verifiable immediately; safe to
// call while verifications are in flight.
func (s *System) AddDocument(d *Document) error { return s.pipeline.Lake().AddDocument(d) }

// AddTriple ingests a knowledge-graph triple into the live lake. The
// subject entity's indexed neighborhood is refreshed incrementally; safe to
// call while verifications are in flight.
func (s *System) AddTriple(t Triple) error { return s.pipeline.Lake().AddTriple(t) }

// AddBatch ingests a mixed batch of tables, documents, and triples through
// the pipelined write path: embedding and tokenization fan out across
// GOMAXPROCS goroutines before the lake's write lock is taken, and a single
// lock acquisition commits the whole batch with contiguous versions. Item
// failures (duplicate IDs, malformed items) are reported per item without
// affecting the rest; the only batch-level error is ingestion into a
// closed system. The call returns after every committed item is indexed.
func (s *System) AddBatch(items []BatchItem) ([]BatchItemResult, error) {
	return s.pipeline.Lake().AddBatch(items)
}

// Flush blocks until every previously accepted ingest has been applied,
// returning the publication watermark (every successfully indexed write at
// or below it is retrievable; see LakeVersion). Indexing errors go to the
// ingest call whose write failed, so the error is always nil.
func (s *System) Flush() (uint64, error) { return s.pipeline.Lake().Flush() }

// Close shuts ingestion down: further writes are rejected, the writes
// still applying are fully indexed (none are lost), and the indexer
// detaches from the lake. For durable systems the write-ahead log is then
// fsynced and closed, so everything acknowledged is on disk; the error is
// the log's (closing the lake itself always succeeds). Verification and
// retrieval keep working on the final state. Idempotent.
func (s *System) Close() error {
	if s.follower != nil {
		// Stop streaming before the lake closes: an apply landing on a
		// closing lake would fail the stream with a spurious error.
		s.follower.stop()
	}
	err := s.pipeline.Lake().Close()
	s.pipeline.Indexer().Close()
	s.pipeline.Close()
	if s.durable != nil {
		if derr := s.durable.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// LakeVersion returns the lake's monotonic mutation version: 0 for a lake
// never written to, bumped by one for every ingested table, document, or
// triple. Consumers can use it to reason about index freshness across
// reads and writes.
func (s *System) LakeVersion() uint64 { return s.pipeline.Lake().Version() }

// VerifyImputedTuple verifies a generated/imputed tuple's attribute against
// the lake. id stably identifies the object for provenance; kinds restricts
// evidence modalities (default: tuples and texts, the paper's Section 4
// setting for tuple completion).
func (s *System) VerifyImputedTuple(id string, tp Tuple, attr string, kinds ...Kind) (Report, error) {
	return s.VerifyImputedTupleCtx(context.Background(), id, tp, attr, kinds...)
}

// VerifyImputedTupleCtx is VerifyImputedTuple honoring a request context:
// cancellation or deadline expiry aborts the verification mid-flight
// (retrieval, reranking, and evidence verification all stop) and
// returns the context's error.
func (s *System) VerifyImputedTupleCtx(ctx context.Context, id string, tp Tuple, attr string, kinds ...Kind) (Report, error) {
	return s.VerifyImputedTupleAsOfCtx(ctx, id, tp, attr, 0, kinds...)
}

// VerifyImputedTupleAsOfCtx is VerifyImputedTupleCtx pinned at a retained
// snapshot version: evidence retrieves, resolves, and weighs exactly as it
// did at asOf, and the Report is stamped with AsOfVersion. asOf 0 means
// head. See Pipeline.VerifyAsOfCtx for the error contract (not-retained vs
// below-floor).
func (s *System) VerifyImputedTupleAsOfCtx(ctx context.Context, id string, tp Tuple, attr string, asOf uint64, kinds ...Kind) (Report, error) {
	if len(tp.Values) != len(tp.Columns) {
		return Report{}, fmt.Errorf("verifai: tuple has %d columns and %d values", len(tp.Columns), len(tp.Values))
	}
	if _, ok := tp.Value(attr); !ok {
		return Report{}, fmt.Errorf("verifai: tuple has no attribute %q", attr)
	}
	if len(kinds) == 0 {
		kinds = []Kind{KindTuple, KindText}
	}
	return s.pipeline.VerifyAsOfCtx(ctx, verify.NewTupleObject(id, tp, attr), asOf, kinds...)
}

// VerifyClaim verifies a structured claim against the lake. kinds defaults
// to tables (the paper's Section 4 setting for textual claims).
func (s *System) VerifyClaim(id string, c Claim, kinds ...Kind) (Report, error) {
	return s.VerifyClaimCtx(context.Background(), id, c, kinds...)
}

// VerifyClaimCtx is VerifyClaim honoring a request context (see
// VerifyImputedTupleCtx).
func (s *System) VerifyClaimCtx(ctx context.Context, id string, c Claim, kinds ...Kind) (Report, error) {
	return s.VerifyClaimAsOfCtx(ctx, id, c, 0, kinds...)
}

// VerifyClaimAsOfCtx is VerifyClaimCtx pinned at a retained snapshot
// version (see VerifyImputedTupleAsOfCtx); asOf 0 means head.
func (s *System) VerifyClaimAsOfCtx(ctx context.Context, id string, c Claim, asOf uint64, kinds ...Kind) (Report, error) {
	if c.Text == "" {
		c.Render()
	}
	if len(kinds) == 0 {
		kinds = []Kind{KindTable}
	}
	return s.pipeline.VerifyAsOfCtx(ctx, verify.NewClaimObject(id, c), asOf, kinds...)
}

// VerifyClaimText parses a natural-language claim and verifies it.
func (s *System) VerifyClaimText(id, text string, kinds ...Kind) (Report, error) {
	return s.VerifyClaimTextCtx(context.Background(), id, text, kinds...)
}

// VerifyClaimTextCtx is VerifyClaimText honoring a request context (see
// VerifyImputedTupleCtx).
func (s *System) VerifyClaimTextCtx(ctx context.Context, id, text string, kinds ...Kind) (Report, error) {
	return s.VerifyClaimTextAsOfCtx(ctx, id, text, 0, kinds...)
}

// VerifyClaimTextAsOfCtx is VerifyClaimTextCtx pinned at a retained
// snapshot version (see VerifyImputedTupleAsOfCtx); asOf 0 means head.
func (s *System) VerifyClaimTextAsOfCtx(ctx context.Context, id, text string, asOf uint64, kinds ...Kind) (Report, error) {
	c, err := claims.Parse(text)
	if err != nil {
		return Report{}, fmt.Errorf("verifai: %w", err)
	}
	return s.VerifyClaimAsOfCtx(ctx, id, c, asOf, kinds...)
}

// PipelineStats reports the serving-path counters: verify-result cache
// hits/misses/invalidations and the query-embedding cache (see
// core.Pipeline.Stats).
type PipelineStats = core.Stats

// Stats snapshots the serving-path cache counters: verify-result cache
// hits, misses, invalidations, and resident entries, plus the
// query-embedding cache. The same counters (and much more — per-stage
// latency, WAL and checkpoint timings, replication lag) are exposed as
// named metrics through Metrics(); this snapshot exists for programmatic
// use and the /v1/stats JSON surface.
func (s *System) Stats() PipelineStats { return s.pipeline.Stats() }

// Retrieve runs only the Indexer+Combiner stage for a generated object.
func (s *System) Retrieve(g Generated, k int, kinds ...Kind) []string {
	_, combined := s.pipeline.Retrieve(g, k, kinds...)
	return combined
}
