// Package durable makes a data lake survive process restarts. It ties
// three pieces together around one data directory:
//
//	<dir>/LOCK             cross-process flock: one Store per directory
//	<dir>/wal/             write-ahead log segments (internal/wal)
//	<dir>/checkpoint/      latest checkpoint: catalog.vaib (the whole
//	                       catalog in one binfmt container, see
//	                       catalog.go), META.json (checkpoint version),
//	                       and indexes/ (the indexer's persisted BM25
//	                       shards; the vector ones are derived from them)
//	<dir>/checkpoint.old/  previous checkpoint, kept only mid-swap
//
// The commit protocol: every lake mutation is appended to the WAL by the
// lake's commit hook — under the write lock, after version assignment,
// before the catalog mutates or the event publishes — so an acknowledged
// write is always reconstructible.
//
// Checkpoints are two-phase so they do not block ingestion. The fork
// phase quiesces the lake just long enough to pin an immutable catalog
// view (datalake.Fork), freeze the index shards in memory, and rotate the
// WAL so post-fork writes land in a fresh segment. The write phase — the
// long part, proportional to snapshot size — then serializes the pinned
// state to checkpoint.tmp, fsyncs the tree, atomically swaps it in, and
// deletes the sealed WAL segments the checkpoint covers, all while
// ingestion continues. Ingest stall is bounded by the fork phase alone. At most one checkpoint runs at
// a time (ErrCheckpointInFlight).
//
// A checkpoint is about a dozen files whatever the lake holds, so the
// fsync pass costs a dozen fsyncs, and a crash at any write of it leaves
// checkpoint.tmp without a META.json: ignored, then cleared.
//
// Recovery (Open, then ReplayTail) is the reverse: load the latest valid
// checkpoint, fast-forward the lake's version counter to the checkpoint
// version, and, once the indexer is subscribed, follow the local WAL as a
// follower follows its leader's: read it through the change feed's
// TailReader and apply it through ApplyReplicated in bounded batches — so
// indexes rebuild through exactly the code live ingestion uses, replay
// memory is bounded by the batch size plus one WAL segment, not the tail
// length, and a version gap fails with ErrReplicaGap. A torn final WAL
// record (a crash mid-append, necessarily unacknowledged) is dropped;
// corruption anywhere else fails recovery loudly.
//
// The directory is owned by one process at a time: Open takes an
// exclusive flock on <dir>/LOCK (released by Close, or by the kernel on
// process death) and a second opener fails fast with ErrLocked.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Options configure a durable store.
type Options struct {
	// Sync is the WAL sync policy (default wal.SyncInterval).
	Sync wal.SyncPolicy
	// WALFormat is the payload encoding for newly appended WAL records
	// (default wal.FormatBinary). Existing records decode regardless of
	// this setting — the payload is self-describing.
	WALFormat wal.Format
	// segmentBytes lowers the WAL segment rotation threshold (<= 0: the
	// wal package default, 16 MiB) so recovery and crash tests span
	// segments; nothing outside them sets it.
	segmentBytes int64
	// FS is the filesystem the store (and its WAL) writes through — catalog
	// containers, index shards (a WriteFunc is handed it), META, manifests,
	// renames, fsyncs; nil means the real OS. The crash-consistency suite
	// injects a faultfs.Faulty here.
	FS faultfs.FS
}

// ErrCheckpointInFlight reports a Checkpoint call that overlapped another:
// checkpoints snapshot and truncate shared directory state, so only one
// runs at a time. Detect it with errors.Is; the first checkpoint's outcome
// covers the second's intent, so callers usually just skip.
var ErrCheckpointInFlight = errors.New("durable: checkpoint already in flight")

// metaFile is the checkpoint's validity marker; a checkpoint directory
// without a readable one is ignored (e.g. a crash mid-write).
const metaFile = "META.json"

// replayBatchSize bounds one batch through ApplyReplicated: replay
// memory is this many decoded records (plus one WAL segment buffer), not
// the whole tail.
const replayBatchSize = 256

// checkpointFormat is the layout this package writes: 2, the catalog in
// one container. Format 1 kept it as a lakeio tree, which no longer loads.
const checkpointFormat = 2

// checkpointMeta is the checkpoint's pinning metadata.
type checkpointMeta struct {
	// Format versions the layout.
	Format int `json:"format"`
	// Version is the lake version the checkpoint captured.
	Version uint64 `json:"version"`
	// CreatedUnix is the checkpoint wall-clock time (informational).
	CreatedUnix int64 `json:"created_unix"`
}

// Stats describes the store for operational surfaces.
type Stats struct {
	Dir               string `json:"data_dir"`
	SyncPolicy        string `json:"sync_policy"`
	CheckpointVersion uint64 `json:"checkpoint_version"`
	// CheckpointBytes / CheckpointFiles size the current checkpoint
	// directory (catalog, index shards, META), measured when it was
	// written or recovered.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	CheckpointFiles int   `json:"checkpoint_files"`
	// CheckpointPartBytes splits CheckpointBytes by part: "catalog"
	// (catalog.vaib), "bm25" (the index files) and "meta" (META.json and
	// indexes/meta.json).
	CheckpointPartBytes map[string]int64 `json:"checkpoint_part_bytes"`
	// LastCheckpointUnix is 0 until a checkpoint happens in this process.
	LastCheckpointUnix int64 `json:"last_checkpoint_unix,omitempty"`
	// LastForkNanos / LastWriteNanos are the last checkpoint's phase
	// durations: fork is the quiesced window (the only part ingestion
	// waits on), write is the unquiesced serialization+swap.
	LastForkNanos  int64 `json:"last_checkpoint_fork_ns,omitempty"`
	LastWriteNanos int64 `json:"last_checkpoint_write_ns,omitempty"`
	WALSegments    int   `json:"wal_segments"`
	WALBytes       int64 `json:"wal_bytes"`
	WALRecords     int   `json:"wal_records"`
	// WALTornBytes counts torn-tail bytes dropped at recovery.
	WALTornBytes int64 `json:"wal_torn_bytes,omitempty"`
	// ReplayedRecords counts WAL records replayed at recovery.
	ReplayedRecords int `json:"replayed_records"`
	// WALReadOnly is why the WAL refuses appends (it wraps
	// wal.ErrReadOnly); empty while it accepts them.
	WALReadOnly string `json:"wal_read_only,omitempty"`
}

// Store is an open durable lake: the recovered lake plus its WAL. Create
// one with Open; the sequence is Open → (build indexer over Lake()) →
// ReplayTail (the local WAL applied as a follower applies a change feed)
// → Arm → serve. Checkpoint and Close are safe to call concurrently with
// lake traffic.
type Store struct {
	dir  string
	opts Options
	fs   faultfs.FS
	lake *datalake.Lake
	log  *wal.Log
	lock *dirLock

	// swapMu orders checkpoint promotion (swapCheckpoint, exclusive)
	// against checkpoint-tar streaming for follower bootstrap (shared): a
	// swap completing mid-stream must not rename the directory out from
	// under the tar walk.
	swapMu sync.RWMutex

	// pinMu serializes durable pin-set mutations (PersistPin / DropPin /
	// RecoverPins): each is a read-modify-write of MANIFEST.json.
	pinMu sync.Mutex

	mu             sync.Mutex
	ckptVersion    uint64
	ckptSize       treeSize
	lastCheckpoint time.Time
	forkDur        time.Duration
	writeDur       time.Duration
	checkpointing  bool
	// ckptIdle broadcasts on mu when checkpointing flips false; Close
	// waits on it so an in-flight checkpoint's write phase finishes
	// before the WAL closes and the directory lock is released.
	ckptIdle *sync.Cond
	replayed int
	armed    bool
	closed   bool
	// staleCatalog is set by Open, when the checkpoint it recovered holds
	// its catalog in the format before the one this build writes.
	staleCatalog bool

	m storeMetrics
}

// storeMetrics holds the store's observability handles; the zero value
// (every handle nil) records nothing, so metrics are strictly opt-in via
// SetMetrics.
type storeMetrics struct {
	forkSec     *obs.Histogram
	writeSec    *obs.Histogram
	checkpoints *obs.Counter
}

// SetMetrics registers the store's checkpoint and recovery metrics (and
// the WAL's) with reg. Call it once after Open, before traffic.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.log.SetMetrics(reg)
	s.m.forkSec = reg.HistogramBuckets("verifai_checkpoint_fork_seconds",
		"Checkpoint fork-phase duration (the quiesced window ingestion waits on).", obs.CheckpointBuckets)
	s.m.writeSec = reg.HistogramBuckets("verifai_checkpoint_write_seconds",
		"Checkpoint write-phase duration (serialization and swap, ingestion running).", obs.CheckpointBuckets)
	s.m.checkpoints = reg.Counter("verifai_checkpoints_total",
		"Checkpoints completed by this process.")
	reg.CounterFunc("verifai_recovery_replayed_records_total",
		"WAL records replayed at the last recovery.", func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return uint64(s.replayed)
		})
	reg.GaugeFunc("verifai_checkpoint_version",
		"Lake version of the current checkpoint.", func() float64 {
			return float64(s.CheckpointVersion())
		})
	reg.GaugeFunc("verifai_checkpoint_bytes",
		"Size of the current checkpoint directory (catalog, index shards, META).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.ckptSize.bytes)
		})
	parts := reg.GaugeVec("verifai_checkpoint_part_bytes",
		"Size of the current checkpoint directory by part (catalog, bm25, meta).", "part")
	reg.OnCollect(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, part := range checkpointParts {
			parts.With(part).Set(float64(s.ckptSize.parts[part]))
		}
	})
}

func (s *Store) walDir() string        { return filepath.Join(s.dir, "wal") }
func (s *Store) checkpointDir() string { return filepath.Join(s.dir, "checkpoint") }

// IndexSnapshotDir is where the current checkpoint keeps the indexer's
// persisted shards (it may not exist — e.g. before the first checkpoint).
func (s *Store) IndexSnapshotDir() string { return filepath.Join(s.checkpointDir(), "indexes") }

// Lake returns the recovered lake.
func (s *Store) Lake() *datalake.Lake { return s.lake }

// CheckpointVersion returns the lake version of the checkpoint the store
// recovered from (or last wrote); 0 before any checkpoint.
func (s *Store) CheckpointVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptVersion
}

// StaleCatalog reports whether the checkpoint Open recovered holds its
// catalog in the format before the one this build writes: it loads, and a
// checkpoint rewrites it (verifai.Open takes one before it returns).
func (s *Store) StaleCatalog() bool { return s.staleCatalog }

// Open recovers a durable lake from dir, creating the layout on first use:
// it loads the checkpoint and opens the WAL, reading it only to repair a
// torn tail and to size its segments. It fails fast with ErrLocked when
// another process owns the directory. Call ReplayTail after subscribing
// the indexer, then Arm to begin logging new writes.
func Open(dir string, opts Options) (_ *Store, err error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	s := &Store{dir: dir, opts: opts, fs: opts.FS}
	s.ckptIdle = sync.NewCond(&s.mu)
	for _, sub := range []string{"", "wal"} {
		if err := s.fs.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("durable: mkdir: %w", err)
		}
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	s.lock = lock
	defer func() {
		if err != nil {
			s.lock.release()
		}
	}()
	meta, err := s.resolveCheckpoint()
	if err != nil {
		return nil, err
	}
	if meta != nil {
		lake, format, err := s.loadCatalog(s.checkpointDir())
		if err != nil {
			return nil, fmt.Errorf("durable: load checkpoint: %w", err)
		}
		s.lake, s.staleCatalog = lake, format != catalogFormat
		s.ckptVersion = meta.Version
		if s.ckptSize, err = measureTree(s.fs, s.checkpointDir()); err != nil {
			lake.Close()
			return nil, fmt.Errorf("durable: measure checkpoint: %w", err)
		}
		if err := lake.FastForwardVersion(meta.Version); err != nil {
			lake.Close()
			return nil, fmt.Errorf("durable: checkpoint at version %d behind its own catalog: %w", meta.Version, err)
		}
	} else {
		s.lake = datalake.New()
	}
	defer func() {
		if err != nil {
			_ = s.lake.Close()
		}
	}()

	// Open the WAL for torn-tail repair and segment bookkeeping only;
	// ReplayTail reads the tail from disk again through a TailReader, so
	// it is never buffered whole in memory here.
	log, err := wal.Open(s.walDir(), wal.Options{
		Sync: opts.Sync, SegmentBytes: opts.segmentBytes,
		Format: opts.WALFormat, FS: opts.FS,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	s.log = log
	return s, nil
}

// resolveCheckpoint picks the newest valid checkpoint, finishing an
// interrupted swap: a valid checkpoint/ wins; otherwise a valid
// checkpoint.old/ is moved back into place; otherwise there is none.
func (s *Store) resolveCheckpoint() (*checkpointMeta, error) {
	cur := s.checkpointDir()
	old := cur + ".old"
	if meta, err := readCheckpointMeta(s.fs, cur); err != nil {
		return nil, err
	} else if meta != nil {
		// Leftover .old from a swap that crashed before cleanup.
		if err := s.fs.RemoveAll(old); err != nil {
			return nil, fmt.Errorf("durable: remove stale checkpoint.old: %w", err)
		}
		return meta, nil
	}
	meta, err := readCheckpointMeta(s.fs, old)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, nil
	}
	// The swap crashed between moving the old checkpoint away and moving
	// the new one in: restore the old one.
	if err := s.fs.RemoveAll(cur); err != nil {
		return nil, fmt.Errorf("durable: remove invalid checkpoint: %w", err)
	}
	if err := s.fs.Rename(old, cur); err != nil {
		return nil, fmt.Errorf("durable: restore checkpoint.old: %w", err)
	}
	return meta, nil
}

// ReplayTail recovers the WAL tail the way a follower applies a leader's
// change feed: it reads the local log through a TailReader at cursor 0 and
// hands batches of up to replayBatchSize records to ApplyReplicated, which
// skips the events the checkpoint covers, re-registers every source at its
// position in WAL order and commits the rest through the lake's
// replication write path — so any subscribed indexer maintains itself
// through the same code as live ingestion, every mutation is verified to
// recommit as its logged version, a version gap fails with ErrReplicaGap,
// and replay memory stays bounded however long the tail is.
func (s *Store) ReplayTail() error {
	r := s.log.Tail(0)
	batch := make([]wal.Record, 0, replayBatchSize)
	replayed := 0
	for {
		rec, ok, err := r.Next()
		if err != nil {
			return fmt.Errorf("durable: replay: %w", err)
		}
		if ok {
			if batch = append(batch, rec); len(batch) < replayBatchSize {
				continue
			}
		}
		n, err := s.ApplyReplicated(batch)
		replayed += n
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		batch = batch[:0]
	}
	s.mu.Lock()
	s.replayed = replayed
	s.mu.Unlock()
	return nil
}

// Arm installs the durability hooks on the lake: from here on, every
// mutation (and source registration) is WAL-appended before it commits.
// Call it after ReplayTail, or replayed records would be logged twice.
func (s *Store) Arm() {
	s.lake.SetCommitHook(func(evs []datalake.Event) error {
		now := time.Now().UnixNano()
		recs := make([]wal.Record, len(evs))
		for i, ev := range evs {
			rec, err := wal.FromEvent(ev)
			if err != nil {
				return err
			}
			rec.TS = now
			recs[i] = rec
		}
		return s.log.Append(recs...)
	})
	s.lake.SetSourceHook(func(src datalake.Source) error {
		// Stamp the source with the version of the next mutation: a
		// checkpoint forked at c covers only versions <= c, so a source
		// registered after the fork must not look covered, neither to
		// TruncateThrough nor to a TailReader at cursor c. The hook runs
		// under the lake's write lock, so no commit moves the version
		// meanwhile. Appliers re-register sources whatever the stamp.
		return s.log.Append(wal.Record{Version: s.lake.CommittedVersion() + 1, Kind: wal.KindSource, Source: &src})
	})
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()
}

// FreezeFunc is the fork-phase half of an index snapshot: it runs with
// the lake quiesced, receiving the immutable View pinned by the fork, and
// must capture index state cheaply in memory (e.g. core.Indexer.Freeze),
// returning the WriteFunc that will serialize the capture later. Handing
// the View itself (not just its version) lets the callback also retain the
// fork as a time-travel snapshot — every checkpoint doubles as one at no
// extra quiescence. An error aborts the checkpoint before anything is
// written.
type FreezeFunc func(view *datalake.View) (WriteFunc, error)

// WriteFunc is the write-phase half: it serializes the frozen capture
// into the checkpoint directory being built, through the store's
// filesystem, with no lake locks held and ingestion running.
type WriteFunc func(fs faultfs.FS, dir string) error

// Checkpoint captures a durable snapshot without blocking ingestion, in
// two phases.
//
// Fork (quiesced, short — the only window writers wait on): seal what the
// lake still holds as Go objects (at most datalake.SealBytes of payload:
// the lake seals by size as it ingests) and pin an immutable view of the
// catalog, all sealed segments, at the current version, run freeze (nil
// skips index snapshotting) to capture index state in memory, and rotate
// the WAL so every post-fork write lands in a fresh segment.
//
// Write (unquiesced, long): serialize the pinned view and frozen indexes
// to checkpoint.tmp, fsync the tree, atomically swap it in as the current
// checkpoint, then delete the sealed WAL segments the checkpoint covers —
// all while new writes commit into the live lake and the rotated WAL.
//
// Returns the checkpoint's lake version. Concurrent calls do not queue:
// the second fails fast with ErrCheckpointInFlight.
func (s *Store) Checkpoint(freeze FreezeFunc) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("durable: store closed")
	}
	if s.checkpointing {
		s.mu.Unlock()
		return 0, ErrCheckpointInFlight
	}
	s.checkpointing = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.checkpointing = false
		s.mu.Unlock()
		s.ckptIdle.Broadcast()
	}()

	// --- fork phase (lake quiesced) ---
	forkStart := time.Now()
	var write WriteFunc
	var sealedSeq int
	view, err := s.lake.Fork(func(v *datalake.View) error {
		if freeze != nil {
			w, ferr := freeze(v)
			if ferr != nil {
				return fmt.Errorf("durable: freeze indexes: %w", ferr)
			}
			write = w
		}
		seq, rerr := s.log.Rotate()
		if rerr != nil {
			return rerr
		}
		sealedSeq = seq
		return nil
	})
	if err != nil {
		return 0, err
	}
	forkDur := time.Since(forkStart)
	version := view.Version()

	// --- write phase (ingestion running) ---
	writeStart := time.Now()
	tmp := s.checkpointDir() + ".tmp"
	if err := s.fs.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("durable: clear checkpoint.tmp: %w", err)
	}
	if err := s.writeCatalog(view, tmp); err != nil {
		return 0, err
	}
	if write != nil {
		if err := write(s.fs, tmp); err != nil {
			return 0, fmt.Errorf("durable: save indexes: %w", err)
		}
	}
	if err := writeCheckpointMeta(s.fs, tmp, checkpointMeta{Format: checkpointFormat, Version: version, CreatedUnix: time.Now().Unix()}); err != nil {
		return 0, err
	}
	// Durability ordering: the WAL segments this checkpoint covers are
	// deleted below, so the checkpoint itself must be on stable storage
	// first — every file and directory of the tree, then the renames that
	// promote it (fsync of the parent directory). Skip any of these and a
	// power loss after truncation loses acknowledged writes that only the
	// (now deleted) WAL held.
	if err := syncTree(s.fs, tmp); err != nil {
		return 0, fmt.Errorf("durable: sync checkpoint tree: %w", err)
	}
	size, err := measureTree(s.fs, tmp)
	if err != nil {
		return 0, fmt.Errorf("durable: measure checkpoint: %w", err)
	}
	s.swapMu.Lock()
	err = s.swapCheckpoint(tmp)
	s.swapMu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		return 0, fmt.Errorf("durable: sync data dir: %w", err)
	}
	// Only segments sealed at the fork's rotation point are eligible: a
	// segment sealed later may hold a source registration the forked view
	// predates.
	if err := s.log.TruncateThrough(version, sealedSeq); err != nil {
		return 0, err
	}
	writeDur := time.Since(writeStart)
	s.mu.Lock()
	s.ckptVersion = version
	s.ckptSize = size
	s.lastCheckpoint = time.Now()
	s.forkDur = forkDur
	s.writeDur = writeDur
	s.mu.Unlock()
	s.m.forkSec.Observe(forkDur.Seconds())
	s.m.writeSec.Observe(writeDur.Seconds())
	s.m.checkpoints.Inc()
	// The write phase leaves its buffers as garbage, and after a seed so
	// does the batch the checkpoint follows: tens of MB that, with the
	// collector's goal raised by them, can wait long for its next cycle.
	// Collect them now, off this goroutine, for the scavenger to return.
	go runtime.GC()
	return version, nil
}

// swapCheckpoint promotes tmp to the current checkpoint. The window where
// neither directory holds a valid checkpoint is the instant between the
// two renames; resolveCheckpoint repairs either crash point.
func (s *Store) swapCheckpoint(tmp string) error {
	cur := s.checkpointDir()
	old := cur + ".old"
	if err := s.fs.RemoveAll(old); err != nil {
		return fmt.Errorf("durable: clear checkpoint.old: %w", err)
	}
	if _, err := s.fs.Stat(cur); err == nil {
		if err := s.fs.Rename(cur, old); err != nil {
			return fmt.Errorf("durable: retire checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("durable: stat checkpoint: %w", err)
	}
	if err := s.fs.Rename(tmp, cur); err != nil {
		return fmt.Errorf("durable: promote checkpoint: %w", err)
	}
	if err := s.fs.RemoveAll(old); err != nil {
		return fmt.Errorf("durable: remove retired checkpoint: %w", err)
	}
	return nil
}

// Sync forces an fsync of the WAL (useful before handing the directory to
// another process in tests; normal operation relies on the sync policy).
func (s *Store) Sync() error { return s.log.Sync() }

// Stats reports the store's durability posture.
func (s *Store) Stats() Stats {
	ls := s.log.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:               s.dir,
		SyncPolicy:        s.opts.Sync.String(),
		CheckpointVersion: s.ckptVersion,
		CheckpointBytes:   s.ckptSize.bytes,
		CheckpointFiles:   s.ckptSize.files,
		LastForkNanos:     s.forkDur.Nanoseconds(),
		LastWriteNanos:    s.writeDur.Nanoseconds(),
		WALSegments:       ls.Segments,
		WALBytes:          ls.Bytes,
		WALRecords:        ls.Records,
		WALTornBytes:      ls.TornBytes,
		ReplayedRecords:   s.replayed,
	}
	st.CheckpointPartBytes = make(map[string]int64, len(checkpointParts))
	for _, part := range checkpointParts {
		st.CheckpointPartBytes[part] = s.ckptSize.parts[part]
	}
	if !s.lastCheckpoint.IsZero() {
		st.LastCheckpointUnix = s.lastCheckpoint.Unix()
	}
	if err := s.log.Poisoned(); err != nil {
		st.WALReadOnly = err.Error()
	}
	return st
}

// Close detaches the durability hooks, closes the WAL (final fsync
// included), and releases the directory lock — always, even when the WAL
// close fails, so a failed shutdown never wedges the directory. An
// in-flight checkpoint is waited out first (new ones are refused): its
// write phase renames checkpoint directories and deletes WAL segments,
// and releasing the cross-process lock mid-phase would let a second
// process open a directory still being mutated. Close does not close the
// lake — the caller owns that — but must be called after the lake stops
// accepting writes, or late writes would commit without being logged.
// Idempotent; concurrent calls wait for the first to pass the checkpoint
// barrier.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		// A concurrent first closer may still be waiting out a
		// checkpoint; hold the same barrier so no caller returns while
		// the directory is mid-mutation.
		for s.checkpointing {
			s.ckptIdle.Wait()
		}
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for s.checkpointing {
		s.ckptIdle.Wait()
	}
	armed := s.armed
	s.mu.Unlock()
	if armed {
		s.lake.SetCommitHook(nil)
		s.lake.SetSourceHook(nil)
	}
	err := s.log.Close()
	s.lock.release()
	return err
}
