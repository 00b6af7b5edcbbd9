package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/vecindex"
)

// Index snapshots let a restarted process skip re-tokenizing and
// re-embedding the whole lake: a checkpoint saves the index of every
// (kind, family) pair, and recovery maps them back — valid only for the
// exact lake version and indexer configuration they were built under, both
// pinned in meta.json. A snapshot that does not match is simply not used
// (the caller falls back to a bulk re-index), never partially applied.
//
// A checkpoint is also a flush. Freeze seals each index into the segment
// Save writes, and once the directory is promoted Adopt opens each index
// file as recovery would and moves the running process onto it (segment
// columns become views of the mapping, the heap copies are dropped): after
// any checkpoint the process holds what a restart on the directory would —
// mapped index files, a delta of what was written since.

// snapshotFormat versions the snapshot layout itself: 3 since index
// segments keep their rows in ID order with the IDs front-coded (2 kept
// them in insertion order, the IDs plain beside an idsort column; 1 also
// held BM25 postings as int32 pairs).
const snapshotFormat = 3

// snapshotMeta pins what a snapshot is valid for.
type snapshotMeta struct {
	Format      int    `json:"format"`
	LakeVersion uint64 `json:"lake_version"`
	// Config is the canonical JSON of the producing IndexerConfig's
	// layout-relevant fields; loading compares it byte-for-byte.
	Config json.RawMessage `json:"config"`
}

// snapshotConfig is the layout-relevant subset of IndexerConfig. Runtime
// tuning knobs (worker counts, cache sizes) are deliberately excluded: an
// operator changing them must not invalidate snapshots.
type snapshotConfig struct {
	Seed         uint64 `json:"seed"`
	EmbedDim     int    `json:"embed_dim"`
	EnableBM25   bool   `json:"enable_bm25"`
	EnableVector bool   `json:"enable_vector"`
	// Vector is always 0 and VectorRows "int8" when vector indexes are
	// written. Both keys stay so that directories and durable pins already
	// written keep their fingerprint and open without a re-index, while one
	// written with float32 rows (no "vector_rows") or for another index
	// family ("vector" 1 or 2) does not match and is rebuilt from the
	// catalog.
	Vector      int             `json:"vector"`
	VectorRows  string          `json:"vector_rows,omitempty"`
	Kinds       []datalake.Kind `json:"kinds"`
	ChunkTokens int             `json:"chunk_tokens"`
	// Shards is always 1, from when each (kind, family) pair could be
	// hash-sharded: the key stays so that directories and durable pins
	// already written open without a re-index, while one written with
	// several shards does not match and is rebuilt from the catalog.
	Shards int `json:"shards"`
}

// canonicalConfig serializes cfg's layout-relevant fields.
func canonicalConfig(cfg IndexerConfig) ([]byte, error) {
	sc := snapshotConfig{
		Seed: cfg.Seed, EmbedDim: cfg.EmbedDim,
		EnableBM25: cfg.EnableBM25, EnableVector: cfg.EnableVector,
		Kinds: cfg.Kinds, ChunkTokens: cfg.ChunkTokens, Shards: 1,
	}
	if cfg.EnableVector {
		sc.VectorRows = "int8"
	}
	return json.Marshal(sc)
}

// shardFile names the file of one (kind, family) index. The "-000" is the
// shard ordinal from when an index could be hash-sharded; it stays so that
// directories already written open as they are.
func shardFile(dir, family string, kind datalake.Kind) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-000.idx", family, kind))
}

// FrozenIndexes is an immutable capture of every (kind, family) index,
// pinned by Indexer.Freeze during a checkpoint's quiesced fork phase. Save
// then serializes it to disk with no lake or index locks held, so
// ingestion proceeds for the whole write phase — the capture stays frozen
// at the fork's lake version no matter how far the live indexes move on.
// It holds references only: the sealed segments the live indexes keep
// searching as their base.
type FrozenIndexes struct {
	ix   *Indexer
	bm25 map[datalake.Kind]*invindex.Frozen
	vec  map[datalake.Kind]*vecindex.Frozen
}

// Freeze captures every index of every family. Call it only while the lake
// is quiesced (e.g. inside datalake.Fork), or concurrent ingest will tear
// the captures against each other. Indexes written since their last seal
// are compacted into a new segment here (searches on that index wait); an
// unchanged index hands back the segment it has. No I/O.
func (ix *Indexer) Freeze() *FrozenIndexes {
	fz := &FrozenIndexes{
		ix:   ix,
		bm25: make(map[datalake.Kind]*invindex.Frozen, len(ix.bm25)),
		vec:  make(map[datalake.Kind]*vecindex.Frozen, len(ix.vec)),
	}
	for kind, idx := range ix.bm25 {
		fz.bm25[kind] = idx.Freeze()
	}
	for kind, idx := range ix.vec {
		fz.vec[kind] = idx.Freeze()
	}
	return fz
}

// Save writes the frozen indexes plus the pinning metadata to dir (created
// if needed) through fs. lakeVersion must be the lake version the capture
// was frozen at. Safe to call with ingestion running: the capture is
// immutable.
func (fz *FrozenIndexes) Save(fs faultfs.FS, dir string, lakeVersion uint64) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot mkdir: %w", err)
	}
	save := func(path string, sh interface{ Save(io.Writer) error }) error {
		f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("core: create snapshot file: %w", err)
		}
		err = sh.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("core: write %s: %w", filepath.Base(path), err)
		}
		return nil
	}
	for kind, f := range fz.bm25 {
		if err := save(shardFile(dir, familyBM25, kind), f); err != nil {
			return err
		}
	}
	for kind, f := range fz.vec {
		if err := save(shardFile(dir, familyVector, kind), f); err != nil {
			return err
		}
	}
	cc, err := canonicalConfig(fz.ix.cfg)
	if err != nil {
		return fmt.Errorf("core: snapshot config: %w", err)
	}
	meta, err := json.MarshalIndent(snapshotMeta{Format: snapshotFormat, LakeVersion: lakeVersion, Config: cc}, "", "  ")
	if err != nil {
		return fmt.Errorf("core: snapshot meta: %w", err)
	}
	if err := fs.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		return fmt.Errorf("core: write snapshot meta: %w", err)
	}
	return nil
}

// Adopt moves the capture, and the live indexes still serving what it
// captured, onto the index files Save wrote under dir — call it once dir
// is where the files will stay (a promoted checkpoint). A file that does
// not open, or is not the container this capture wrote, is not adopted:
// that index keeps its heap copy and counts as skipped, never guessed.
// Safe with ingestion and searches running.
func (fz *FrozenIndexes) Adopt(dir string) {
	count := func(err error) {
		if err != nil {
			fz.ix.m.skipped.Inc()
		} else {
			fz.ix.m.adopted.Inc()
		}
	}
	for kind, f := range fz.bm25 {
		count(f.Adopt(shardFile(dir, familyBM25, kind)))
	}
	for kind, f := range fz.vec {
		count(f.Adopt(shardFile(dir, familyVector, kind)))
	}
}

// ErrSnapshotMismatch reports a snapshot that is missing or was built for
// a different lake version or indexer configuration — not corruption, just
// "rebuild instead".
var ErrSnapshotMismatch = fmt.Errorf("core: index snapshot missing or stale")

// errStaleFormat is the ErrSnapshotMismatch of a snapshot written for this
// configuration in another snapshot format: its index files are not read,
// but the catalog they were built from rebuilds them.
var errStaleFormat = fmt.Errorf("%w (written in another snapshot format)", ErrSnapshotMismatch)

// BuildIndexerFromSnapshot is BuildIndexer loading the index contents from
// a FrozenIndexes.Save directory instead of re-indexing the lake. The snapshot
// must match cfg and the lake's current version exactly (both checked with
// the lake quiesced); on any mismatch it returns ErrSnapshotMismatch
// (wrap-checked with errors.Is) and the caller falls back to BuildIndexer.
func BuildIndexerFromSnapshot(lake *datalake.Lake, cfg IndexerConfig, dir string) (*Indexer, error) {
	ix, err := newIndexer(lake, &cfg)
	if err != nil {
		return nil, err
	}
	meta, err := checkSnapshotMeta(ix.cfg, dir)
	if err != nil {
		return nil, err
	}

	unsubscribe, err := lake.SubscribeSync(func() error {
		// Version check inside the quiesced init: nothing can commit
		// between the check, the load, and the subscription.
		if v := lake.Version(); v != meta.LakeVersion {
			return fmt.Errorf("%w (snapshot at lake version %d, lake at %d)", ErrSnapshotMismatch, meta.LakeVersion, v)
		}
		bm25, vec, err := openIndexes(ix.cfg, dir)
		if err == nil {
			ix.bm25, ix.vec = bm25, vec
		}
		return err
	}, datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply})
	if err != nil {
		return nil, err
	}
	ix.unsubscribe = unsubscribe
	return ix, nil
}

// openIndexes opens every index file of the snapshot directory dir as cfg
// lays them out, by path so each is memory-mapped and served lazily: one
// verification pass per file, vector and posting pages fault in as
// queries touch them. A missing index file is an ErrSnapshotMismatch
// (rebuild instead); one that exists but fails to open is corruption,
// surfaced loudly.
func openIndexes(cfg IndexerConfig, dir string) (map[datalake.Kind]*invindex.Index, map[datalake.Kind]*vecindex.SQFlat, error) {
	bm25 := make(map[datalake.Kind]*invindex.Index)
	vec := make(map[datalake.Kind]*vecindex.SQFlat)
	for _, kind := range cfg.Kinds {
		if cfg.EnableBM25 {
			idx, err := openBM25Shard(shardFile(dir, familyBM25, kind))
			if err != nil {
				return nil, nil, err
			}
			bm25[kind] = idx
		}
		if cfg.EnableVector {
			idx, err := openVectorShard(shardFile(dir, familyVector, kind))
			if err != nil {
				return nil, nil, err
			}
			vec[kind] = idx
		}
	}
	return bm25, vec, nil
}

// checkSnapshotMeta reads and validates a snapshot directory's meta.json
// against cfg (which must already be normalized — newIndexer writes the
// normalized config back). It returns the meta so callers can check the
// pinned lake version; any format or config-fingerprint drift is an
// ErrSnapshotMismatch, format drift alone errStaleFormat.
func checkSnapshotMeta(cfg IndexerConfig, dir string) (snapshotMeta, error) {
	var meta snapshotMeta
	metaBytes, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return meta, fmt.Errorf("%w (no meta.json: %v)", ErrSnapshotMismatch, err)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, fmt.Errorf("%w (unreadable meta.json: %v)", ErrSnapshotMismatch, err)
	}
	cc, err := canonicalConfig(cfg)
	if err != nil {
		return meta, err
	}
	// MarshalIndent re-indented the embedded raw config; compact it back
	// before the byte comparison.
	var stored bytes.Buffer
	if err := json.Compact(&stored, meta.Config); err != nil {
		return meta, fmt.Errorf("%w (unreadable config fingerprint: %v)", ErrSnapshotMismatch, err)
	}
	if stored.String() != string(cc) {
		return meta, fmt.Errorf("%w (configuration changed)", ErrSnapshotMismatch)
	}
	if meta.Format != snapshotFormat {
		return meta, fmt.Errorf("%w: format %d, this build writes format %d", errStaleFormat, meta.Format, snapshotFormat)
	}
	return meta, nil
}

// statShard distinguishes "snapshot incomplete or written by a release
// older than the binfmt container" (ErrSnapshotMismatch, rebuild instead)
// from "shard present but unreadable" (corruption, surfaced loudly by the
// open that follows).
func statShard(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w (missing shard file %s)", ErrSnapshotMismatch, filepath.Base(path))
	}
	defer f.Close()
	var head [len(binfmt.Magic)]byte
	// A file shorter than the magic leaves head zero-padded: stale too.
	if _, err := io.ReadFull(f, head[:]); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("core: read %s: %w", filepath.Base(path), err)
	}
	if string(head[:]) != binfmt.Magic {
		return fmt.Errorf("%w (shard file %s is not in the binfmt format)", ErrSnapshotMismatch, filepath.Base(path))
	}
	return nil
}

// openBM25Shard opens one persisted BM25 shard by path.
func openBM25Shard(path string) (*invindex.Index, error) {
	if err := statShard(path); err != nil {
		return nil, err
	}
	return invindex.OpenFile(path)
}

// openVectorShard opens one persisted vector shard by path.
func openVectorShard(path string) (*vecindex.SQFlat, error) {
	if err := statShard(path); err != nil {
		return nil, err
	}
	return vecindex.OpenSQFile(path)
}
