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
	"slices"
	"strconv"
	"strings"
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
// re-embedding the whole lake: a checkpoint saves the BM25 index of every
// kind but the table one, and recovery opens them back, sums the table
// kind's from the tuple kind's and derives each kind's vector index from
// its BM25 one — valid only for the exact lake version and indexer
// configuration they were built under, both pinned in meta.json. A
// snapshot that does not match is simply not used (the caller falls back
// to a bulk re-index), never partially applied.
//
// The vector indexes need no files: a row is the embedding of exactly the
// terms its instance's BM25 document holds, and a sealed BM25 segment
// holds each document's distinct terms, in the ascending order the
// embedding sums them, with the frequencies it weighs them by
// (derivedRows). Nor does the table kind's BM25 index: a table's document
// is its header and its rows' cells, which its tuples' documents hold
// too, so only the header and any cells past its width are analyzed again
// (tablePieces.sum).
//
// A checkpoint is also a flush. Freeze folds each BM25 index into one
// segment, which the running index keeps searching, and Save writes each
// stored kind's segment container to its file deflated
// (binfmt.Reader.WriteFile): after any checkpoint the process holds one
// sealed segment per BM25 index, as a restart on the directory would,
// inflated there from the files or, for the table kind, summed.
//
// Layout of a snapshot directory:
//
//	meta.json             the format, the lake version and the config
//	                      fingerprint (snapshotMeta)
//	bm25-<kind>-000.idx   the BM25 segment of each kind of storedKinds
//	                      (tuple, text, entity): binfmt.FileMagic, the
//	                      container's length, the container deflated

// snapshotFormat versions the snapshot layout itself: 7 since the table
// kind's BM25 segment is summed at open instead of stored (6 deflated the
// BM25 files, the table kind's too; 5 held the containers as they are in memory, with
// BM25 blocks that patch their wide gaps in as exceptions and the lengths
// and per-term pair counts (df) at the width they need; 4 stored every gap
// at its block's widest, lengths as int32 and cumulative pair starts as
// uint32; 3 also held one vector file per kind; 2 kept rows in insertion
// order, the IDs plain beside an idsort column; 1 also held BM25 postings
// as int32 pairs).
const snapshotFormat = 7

// storedKinds are the kinds whose BM25 segment a snapshot directory
// holds: every kind of allKinds but the table one.
var storedKinds = []datalake.Kind{datalake.KindTuple, datalake.KindText, datalake.KindEntity}

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
// ("shards" 1), and every kind is indexed ("kinds" allKinds).
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
		VectorRows: "int8", Kinds: allKinds, Shards: 1,
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
	bm25 := make([]*invindex.Frozen, len(allKinds))
	vec := make([]*vecindex.SQFlat, len(allKinds))
	var tasks []func()
	for i, kind := range allKinds {
		tasks = append(tasks, func() { bm25[i] = ix.bm25[kind].Freeze() }, func() { vec[i] = ix.vec[kind].Fork() })
	}
	par.For(len(tasks), runtime.GOMAXPROCS(0), func(i int) { tasks[i]() })
	for i, kind := range allKinds {
		fz.bm25[kind], fz.vec[kind] = bm25[i], vec[i]
	}
	return fz
}

// Save writes the frozen BM25 indexes of storedKinds plus the pinning
// metadata to dir (created if needed) through fs, the kinds' files
// deflated in parallel; the table kind's BM25 index is summed from the
// tuple kind's, and the vector indexes are derived from the BM25 ones,
// when the directory is opened. lakeVersion must be the lake version the
// capture was frozen at.
// Safe to call with ingestion running: the capture is immutable.
func (fz *FrozenIndexes) Save(fs faultfs.FS, dir string, lakeVersion uint64) error {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot mkdir: %w", err)
	}
	errs := make([]error, len(storedKinds))
	par.For(len(storedKinds), runtime.GOMAXPROCS(0), func(i int) {
		kind := storedKinds[i]
		errs[i] = saveShard(fs, shardFile(dir, familyBM25, kind), fz.bm25[kind])
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

// BM25 returns the frozen BM25 segment of kind: written through
// invindex.Frozen.Save, the file a snapshot directory holds for a stored
// kind.
func (fz *FrozenIndexes) BM25(kind datalake.Kind) *invindex.Frozen { return fz.bm25[kind] }

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
		bm25, vec, err := ix.openIndexes(dir, lake.TableIDs(), lake.ResolveBorrowed)
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

// openIndexes opens the BM25 index file of every stored kind of the
// snapshot directory dir — each inflated into a segment off the Go heap,
// every run decoded once to validate it and laid out by document in the
// same pass — while it reads the tables of the catalog the snapshot was
// taken of: those of tids, through borrow (datalake.Lake.ResolveBorrowed
// or its View counterpart). It then derives the vector indexes, kinds in parallel: each
// stored kind's from its BM25 documents, and the table kind's from its
// BM25 index, which it first sums from the tuple kind's documents and the
// tables (tablePieces.sum); and it records how long that took. A missing
// index file is an ErrSnapshotMismatch (rebuild instead); one that exists
// but fails to open or to derive from is corruption, surfaced loudly.
func (ix *Indexer) openIndexes(dir string, tids []string, borrow borrowFunc) (map[datalake.Kind]*invindex.Index, map[datalake.Kind]*vecindex.SQFlat, error) {
	bm25s, trs, tables, err := ix.openStored(dir, tids, borrow)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	// The stored kinds take their term rows in turn, the tuple kind first,
	// so a term they share is added and its row filled by the first and
	// only read by the rest, and the tuple kind's terms are numbered in
	// their ascending order: a derivation then reads the token table in
	// address order. The table kind's terms are the tuple kind's, but for
	// a few only headers or cells past them hold, so its sum and
	// derivation run beside the other kinds' derivations.
	fills := make([]func(d int, row embed.Vector), len(allKinds))
	for _, kind := range storedKinds {
		fills[kind] = derivedRows(ix.emb, trs[kind])
	}
	vecs := make([]*vecindex.SQFlat, len(allKinds))
	if err := eachKind(func(i int) (err error) {
		if allKinds[i] == datalake.KindTable {
			if bm25s[i], trs[i], err = tables.sum(ix.emb.Dict(), trs[datalake.KindTuple]); err != nil {
				return err
			}
			fills[i] = derivedRows(ix.emb, trs[i])
		}
		vecs[i], err = vecindex.Derive(ix.emb.Dim(), trs[i].IDs, fills[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	ix.deriveNanos.Store(int64(time.Since(start)))
	bm25 := make(map[datalake.Kind]*invindex.Index, len(allKinds))
	vec := make(map[datalake.Kind]*vecindex.SQFlat, len(allKinds))
	for i, kind := range allKinds {
		bm25[kind], vec[kind] = bm25s[i], vecs[i]
	}
	return bm25, vec, nil
}

// eachKind runs do for every kind's position in allKinds, kinds in
// parallel, and returns the first kind's error, as a sequential loop would
// return it: a mismatch must not hide another kind's corruption, or the
// reverse.
func eachKind(do func(i int) error) error {
	errs := make([]error, len(allKinds))
	par.For(len(allKinds), runtime.GOMAXPROCS(0), func(i int) { errs[i] = do(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// borrowFunc resolves instances without copying them and calls fn with
// them, as datalake.Lake.ResolveBorrowed does.
type borrowFunc func(instanceIDs []string, fn func([]datalake.Instance) error) error

// openStored returns the BM25 index of every stored kind of the snapshot
// directory dir, by position in allKinds, with its postings transposed,
// and what the table kind's is summed from besides the tuple kind's: the
// files opened, and the tables of tids read through borrow, in parallel.
func (ix *Indexer) openStored(dir string, tids []string, borrow borrowFunc) ([]*invindex.Index, []*invindex.Transposed, *tablePieces, error) {
	bm25s := make([]*invindex.Index, len(allKinds))
	trs := make([]*invindex.Transposed, len(allKinds))
	var tables *tablePieces
	err := eachKind(func(i int) (err error) {
		if allKinds[i] == datalake.KindTable {
			tables, err = readTables(tids, borrow)
		} else {
			bm25s[i], trs[i], err = openBM25Shard(shardFile(dir, familyBM25, allKinds[i]), ix.emb.Dict())
		}
		return err
	})
	return bm25s, trs, tables, err
}

// tablePieces is what the table kind's BM25 index is summed from besides
// the tuple kind's documents (tablePieces.sum): each table's ID, ascending
// (the segment's order), the term IDs of its header (caption and column
// names) and then of its cells past the header's width, in a dictionary
// of their own, and its row count.
type tablePieces struct {
	dict   *textutil.Dict
	tids   []string
	pieces [][]uint32
	header []int // table i's header is pieces[i][:header[i]]
	first  []int // table i's rows are numbered first[i] to first[i+1]-1
	at     map[string]int
}

// readChunk is how many tables readTables borrows at a time, so the
// pooled buffer a borrow fills stays small and is reused.
const readChunk = 64

// readTables analyzes the header and the cells past its width of every
// table of tids, borrowed through borrow, for tablePieces.sum.
func readTables(tids []string, borrow borrowFunc) (*tablePieces, error) {
	tids = slices.Sorted(slices.Values(tids))
	tp := &tablePieces{dict: textutil.NewDict(), tids: tids, pieces: make([][]uint32, len(tids)),
		header: make([]int, len(tids)), first: make([]int, len(tids)+1), at: make(map[string]int, len(tids))}
	ids := make([]string, 0, readChunk)
	for lo := 0; lo < len(tids); lo += readChunk {
		ids = ids[:0]
		for _, tid := range tids[lo:min(lo+readChunk, len(tids))] {
			ids = append(ids, datalake.TableInstanceID(tid))
		}
		err := borrow(ids, func(insts []datalake.Instance) error {
			for k, inst := range insts {
				i, t := lo+k, inst.Table
				pieces := tp.dict.AppendIDs(nil, t.Caption)
				for _, col := range t.Columns {
					pieces = tp.dict.AppendIDs(pieces, col)
				}
				tp.header[i] = len(pieces)
				for _, row := range t.Rows {
					for _, cell := range row[min(len(row), len(t.Columns)):] {
						pieces = tp.dict.AppendIDs(pieces, cell)
					}
				}
				tp.pieces[i], tp.first[i+1], tp.at[tids[i]] = pieces, tp.first[i]+len(t.Rows), i
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: read the lake's tables: %w", err)
		}
	}
	return tp, nil
}

// sum returns the table kind's BM25 index over the tables, over dict,
// with its postings transposed: summed from the tuple kind's documents
// tuples instead of analyzing every cell. prepareTable analyzes a table in
// pieces: its header, each row's cells within the header's width, and any
// cells past it; a tuple's document is the header and its row's cells
// within the width, the table's is every piece. So for each term, the
// table's frequency is the header's, plus over the rows the tuple's
// frequency less the header's, plus its frequency in the cells past the
// width, and the length sums the same way: integer sums, so the table's
// document, and the bits of its BM25 scores and vector row, are the ones
// ingestion wrote. A table with no rows is its header alone. The tuples
// must be exactly the tables' rows, each holding its header: anything
// else is corruption, reported as an error.
func (tp *tablePieces) sum(dict *textutil.Dict, tuples *invindex.Transposed) (*invindex.Index, *invindex.Transposed, error) {
	n := len(tp.tids)
	if tp.first[n] != tuples.Len() {
		return nil, nil, fmt.Errorf("core: the tuple index holds %d documents for %d table rows", tuples.Len(), tp.first[n])
	}
	rowDoc := make([]int, tuples.Len())
	for d := range rowDoc {
		rowDoc[d] = -1
	}
	for d, id := range tuples.IDs.All() {
		tid, row, ok := tupleRow(id)
		i, known := tp.at[string(tid)]
		if !ok || !known || row >= tp.first[i+1]-tp.first[i] || rowDoc[tp.first[i]+row] >= 0 {
			return nil, nil, fmt.Errorf("core: tuple document %q is no row of the lake's tables", id)
		}
		rowDoc[tp.first[i]+row] = d
	}

	// The index's terms are the tuple index's, and those only headers of
	// tables without rows or cells past a header hold, merged in order.
	terms := make([]string, tuples.Terms.Len())
	for ti := range terms {
		terms[ti] = string(tuples.Terms.Bytes(ti))
	}
	// tupleRank maps a tuple index term's index to its index among the
	// index's terms, pieceRank a piece term's ID in tp.dict; held says
	// whether the tuple index holds the piece term.
	tupleRank := make([]int32, len(terms))
	for ti := range tupleRank {
		tupleRank[ti] = int32(ti)
	}
	pieceRank, held := make([]int32, tp.dict.Len()), make([]bool, tp.dict.Len())
	var extra []uint32 // the piece terms the tuple index lacks
	for id := range pieceRank {
		// For a term not held: where it would be inserted.
		ti, found := slices.BinarySearch(terms, tp.dict.Term(uint32(id)))
		pieceRank[id], held[id] = int32(ti), found
		if !found {
			extra = append(extra, uint32(id))
		}
	}
	if len(extra) > 0 {
		// Sorted, the extras' insertion points ascend too.
		slices.SortFunc(extra, func(a, b uint32) int { return strings.Compare(tp.dict.Term(a), tp.dict.Term(b)) })
		merged := make([]string, 0, len(terms)+len(extra))
		ti := 0
		for _, id := range extra {
			for ; ti < int(pieceRank[id]); ti++ {
				tupleRank[ti], merged = int32(len(merged)), append(merged, terms[ti])
			}
			pieceRank[id], merged = int32(len(merged)), append(merged, tp.dict.Term(id))
		}
		for ; ti < len(terms); ti++ {
			tupleRank[ti], merged = int32(len(merged)), append(merged, terms[ti])
		}
		terms = merged
	}
	for id, ti := range pieceRank {
		if held[id] {
			pieceRank[id] = tupleRank[ti]
		}
	}

	ids, lengths, docs := make([]string, n), make([]uint32, n), make([][]int32, n)
	// counts holds the table's terms' frequencies by term index, the terms
	// being those whose seen entry is the table's ordinal plus one, in
	// touched.
	counts, seen := make([]int32, len(terms)), make([]int, len(terms))
	var touched []int32
	for i, tid := range tp.tids {
		touched = touched[:0]
		add := func(t, freq int32) {
			if seen[t] != i+1 {
				seen[t], touched = i+1, append(touched, t)
			}
			counts[t] += freq
		}
		pieces, header := tp.pieces[i], tp.header[i]
		for _, id := range pieces {
			add(pieceRank[id], 1)
		}
		length := len(pieces)
		for _, d := range rowDoc[tp.first[i]:tp.first[i+1]] {
			pairs := tuples.Doc(d)
			for j := 0; j < len(pairs); j += 2 {
				add(tupleRank[pairs[j]], pairs[j+1])
			}
			for _, id := range pieces[:header] {
				counts[pieceRank[id]]--
			}
			length += tuples.DocLen(d) - header
		}
		doc := make([]int32, 0, 2*len(touched))
		for _, t := range touched {
			if counts[t] <= 0 {
				return nil, nil, fmt.Errorf("core: the tuples of table %q sum to %d occurrences of %q", tid, counts[t], terms[t])
			}
			doc = append(doc, t, counts[t])
			counts[t] = 0
		}
		ids[i], lengths[i], docs[i] = datalake.TableInstanceID(tid), uint32(length), doc
	}
	idx, tr, err := invindex.Build(dict, terms, ids, lengths, docs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: table index: %w", err)
	}
	return idx, tr, nil
}

// tupleRow parses a tuple's instance ID (datalake.TupleInstanceID) into
// its table's ID and its row.
func tupleRow(id []byte) (tid []byte, row int, ok bool) {
	rest, found := bytes.CutPrefix(id, []byte("tuple:"))
	hash := bytes.LastIndexByte(rest, '#')
	if !found || hash < 0 {
		return nil, 0, false
	}
	row, err := strconv.Atoi(string(rest[hash+1:]))
	return rest[:hash], row, err == nil && row >= 0
}

// derivedRows adds tr's terms to emb's dictionary, their token-table rows
// filled in parallel (Embedder.AddTermVectors), and returns what fills the
// vector row of tr's document d: what EmbedText returns for the text the
// document was indexed from, summed from its distinct terms in ascending
// order through the same accumulate step and normalized, so the codes and
// norms are the ones ingestion wrote, bit for bit.
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
