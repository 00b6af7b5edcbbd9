package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/binfmt"
	"repro/internal/datalake"
	"repro/internal/embed"
	"repro/internal/faultfs"
	"repro/internal/invindex"
	"repro/internal/par"
	"repro/internal/textutil"
	"repro/internal/vecindex"
)

// Index snapshots let a restarted process skip re-tokenizing and
// re-embedding the whole lake: a checkpoint saves every kind's BM25 index,
// and recovery opens them back and derives each kind's vector index from
// its BM25 one — valid only for the exact lake version and indexer
// configuration they were built under, both pinned in meta.json. A
// snapshot that does not match is simply not used (the caller falls back
// to a bulk re-index), never partially applied.
//
// The vector indexes need no files: a row is the embedding of exactly the
// terms its instance's BM25 document holds, and a sealed BM25 segment
// holds each document's distinct terms, in the ascending order the
// embedding sums them, with the frequencies it weighs them by
// (deriveVectors).
//
// A checkpoint is also a flush. Freeze folds each BM25 index into one
// segment, which the running index keeps searching, and Save writes each
// segment's container to its file deflated (binfmt.Reader.WriteFile): after
// any checkpoint the process holds one sealed segment per BM25 index, as a
// restart on the directory would, inflated there from the files.
//
// Layout of a snapshot directory:
//
//	meta.json             the format, the lake version and the config
//	                      fingerprint (snapshotMeta)
//	bm25-<kind>-000.idx   each kind's BM25 segment: binfmt.FileMagic, the
//	                      container's length, the container deflated

// snapshotFormat versions the snapshot layout itself: 6 since the BM25
// files are deflated (5 held the containers as they are in memory, with
// BM25 blocks that patch their wide gaps in as exceptions and the lengths
// and per-term pair counts (df) at the width they need; 4 stored every gap
// at its block's widest, lengths as int32 and cumulative pair starts as
// uint32; 3 also held one vector file per kind; 2 kept rows in insertion
// order, the IDs plain beside an idsort column; 1 also held BM25 postings
// as int32 pairs).
const snapshotFormat = 6

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
//
// The other keys are constants from configurations the indexer no longer
// offers; they stay so that directories and durable pins keep their
// fingerprint, while one written otherwise does not match and is rebuilt
// from the catalog. Both families are always on ("enable_*" true), text is
// never chunked ("chunk_tokens" 0), the vector index is the int8 flat one
// ("vector" 0, "vector_rows" "int8"; float32 rows wrote no "vector_rows",
// an IVF or LSH index "vector" 1 or 2) and no index is hash-sharded
// ("shards" 1).
type snapshotConfig struct {
	Seed         uint64          `json:"seed"`
	EmbedDim     int             `json:"embed_dim"`
	EnableBM25   bool            `json:"enable_bm25"`
	EnableVector bool            `json:"enable_vector"`
	Vector       int             `json:"vector"`
	VectorRows   string          `json:"vector_rows"`
	Kinds        []datalake.Kind `json:"kinds"`
	ChunkTokens  int             `json:"chunk_tokens"`
	Shards       int             `json:"shards"`
}

// canonicalConfig serializes cfg's layout-relevant fields.
func canonicalConfig(cfg IndexerConfig) ([]byte, error) {
	return json.Marshal(snapshotConfig{
		Seed: cfg.Seed, EmbedDim: cfg.EmbedDim, EnableBM25: true, EnableVector: true,
		VectorRows: "int8", Kinds: cfg.Kinds, Shards: 1,
	})
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
// It holds references only: each BM25 index's one segment, which the live
// index keeps searching, and forks of the vector indexes, which share
// their segments with the live ones.
type FrozenIndexes struct {
	ix   *Indexer
	bm25 map[datalake.Kind]*invindex.Frozen
	vec  map[datalake.Kind]*vecindex.SQFlat
}

// Freeze captures every index of every family. Call it only while the lake
// is quiesced (e.g. inside datalake.Fork), or concurrent ingest will tear
// the captures against each other. Each BM25 index is folded into the one
// segment its file holds (searches on that index wait); one that is a
// single segment with nothing written since hands back the segment it
// has. Each vector index only seals its tail and is forked. The indexes
// are captured in parallel. No I/O.
func (ix *Indexer) Freeze() *FrozenIndexes {
	fz := &FrozenIndexes{
		ix:   ix,
		bm25: make(map[datalake.Kind]*invindex.Frozen, len(ix.bm25)),
		vec:  make(map[datalake.Kind]*vecindex.SQFlat, len(ix.vec)),
	}
	bm25 := make([]*invindex.Frozen, len(ix.cfg.Kinds))
	vec := make([]*vecindex.SQFlat, len(ix.cfg.Kinds))
	var tasks []func()
	for i, kind := range ix.cfg.Kinds {
		tasks = append(tasks, func() { bm25[i] = ix.bm25[kind].Freeze() }, func() { vec[i] = ix.vec[kind].Fork() })
	}
	par.For(len(tasks), runtime.GOMAXPROCS(0), func(i int) { tasks[i]() })
	for i, kind := range ix.cfg.Kinds {
		fz.bm25[kind], fz.vec[kind] = bm25[i], vec[i]
	}
	return fz
}

// Save writes the frozen BM25 indexes plus the pinning metadata to dir
// (created if needed) through fs, the kinds' files deflated in parallel;
// the vector indexes are derived from the BM25 ones when the directory is
// opened. lakeVersion must be the lake version the capture was frozen at.
// Safe to call with ingestion running: the capture is immutable.
func (fz *FrozenIndexes) Save(fs faultfs.FS, dir string, lakeVersion uint64) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot mkdir: %w", err)
	}
	kinds := fz.ix.cfg.Kinds
	errs := make([]error, len(kinds))
	par.For(len(kinds), runtime.GOMAXPROCS(0), func(i int) {
		errs[i] = saveShard(fs, shardFile(dir, familyBM25, kinds[i]), fz.bm25[kinds[i]])
	})
	if err := errors.Join(errs...); err != nil {
		return err
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

// saveShard writes one BM25 segment to the file at path through fs.
func saveShard(fs faultfs.FS, path string, z *invindex.Frozen) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("core: create snapshot file: %w", err)
	}
	err = z.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: write %s: %w", filepath.Base(path), err)
	}
	return nil
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
	ix := newIndexer(lake, &cfg)
	meta, err := checkSnapshotMeta(ix.cfg, dir)
	if err != nil {
		return nil, err
	}

	unsubscribe, err := lake.Subscribe(func() error {
		// Version check inside the quiesced init: nothing can commit
		// between the check, the load, and the subscription.
		if v := lake.Version(); v != meta.LakeVersion {
			return fmt.Errorf("%w (snapshot at lake version %d, lake at %d)", ErrSnapshotMismatch, meta.LakeVersion, v)
		}
		bm25, vec, err := ix.openIndexes(dir)
		if err == nil {
			ix.bm25, ix.vec = bm25, vec
		}
		return err
	}, datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply, Seal: ix.Seal})
	if err != nil {
		return nil, err
	}
	ix.unsubscribe = unsubscribe
	return ix, nil
}

// openIndexes opens the BM25 index file of every configured kind of the
// snapshot directory dir — each inflated into a segment off the Go heap,
// every run decoded once to validate it and laid out by document in the
// same pass — then derives each kind's vector index from those documents,
// kinds in parallel, and records how long the derivation took. A missing
// index file is an ErrSnapshotMismatch (rebuild instead); one that exists
// but fails to open or to derive from is corruption, surfaced loudly.
func (ix *Indexer) openIndexes(dir string) (map[datalake.Kind]*invindex.Index, map[datalake.Kind]*vecindex.SQFlat, error) {
	kinds := ix.cfg.Kinds
	bm25s := make([]*invindex.Index, len(kinds))
	trs := make([]*invindex.Transposed, len(kinds))
	vecs := make([]*vecindex.SQFlat, len(kinds))
	eachKind := func(do func(i int) error) error {
		errs := make([]error, len(kinds))
		par.For(len(kinds), runtime.GOMAXPROCS(0), func(i int) { errs[i] = do(i) })
		// The first kind's error, as a sequential open would return it: a
		// mismatch must not hide another kind's corruption, or the reverse.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := eachKind(func(i int) (err error) {
		bm25s[i], trs[i], err = openBM25Shard(shardFile(dir, familyBM25, kinds[i]), ix.emb.Dict())
		return err
	}); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	// Kinds take their term rows in turn, so a term they share is added and
	// its row filled by the first and only read by the rest.
	fills := make([]func(d int, row embed.Vector), len(kinds))
	for i, tr := range trs {
		fills[i] = derivedRows(ix.emb, tr)
	}
	if err := eachKind(func(i int) (err error) {
		vecs[i], err = vecindex.Derive(ix.emb.Dim(), trs[i].IDs, fills[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	ix.deriveNanos.Store(int64(time.Since(start)))
	bm25 := make(map[datalake.Kind]*invindex.Index, len(kinds))
	vec := make(map[datalake.Kind]*vecindex.SQFlat, len(kinds))
	for i, kind := range kinds {
		bm25[kind], vec[kind] = bm25s[i], vecs[i]
	}
	return bm25, vec, nil
}

// derivedRows adds tr's terms to emb's dictionary, their token-table rows
// filled on the embedder's worker pool, and returns what fills the vector
// row of tr's document d: what EmbedText returns for the text the document
// was indexed from, summed from its distinct terms in ascending order
// through the same accumulate step and normalized, so the codes and norms
// are the ones ingestion wrote, bit for bit.
func derivedRows(emb *embed.Embedder, tr *invindex.Transposed) func(d int, row embed.Vector) {
	terms := make([]string, tr.Terms.Len())
	for i := range terms {
		terms[i] = string(tr.Terms.Bytes(i))
	}
	byTerm := emb.AddTermVectors(terms)
	return func(d int, row embed.Vector) {
		pairs := tr.Doc(d)
		for j := 0; j < len(pairs); j += 2 {
			embed.AddTerm(row, byTerm[pairs[j]], pairs[j+1])
		}
		embed.Normalize(row)
		runtime.KeepAlive(emb) // byTerm views its token table
	}
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

// openBM25Shard opens one persisted BM25 shard by path, its delta over
// dict, with its postings transposed. A file missing, or not a binfmt
// container file, is an ErrSnapshotMismatch (rebuild instead); one present
// but unreadable is corruption, surfaced loudly by the open.
func openBM25Shard(path string, dict *textutil.Dict) (*invindex.Index, *invindex.Transposed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (missing shard file %s)", ErrSnapshotMismatch, filepath.Base(path))
	}
	var head [len(binfmt.FileMagic)]byte
	// A file shorter than the magic leaves head zero-padded: stale too.
	_, err = io.ReadFull(f, head[:])
	f.Close()
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, nil, fmt.Errorf("core: read %s: %w", filepath.Base(path), err)
	}
	if string(head[:]) != binfmt.FileMagic {
		return nil, nil, fmt.Errorf("%w (shard file %s is not a binfmt container file)", ErrSnapshotMismatch, filepath.Base(path))
	}
	return invindex.OpenFile(path, dict)
}
