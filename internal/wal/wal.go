// Package wal implements the lake's write-ahead log: an append-only,
// length-prefixed, CRC-checksummed record log split into rotating segment
// files. The lake's commit section appends every mutation before it
// becomes visible, so a process restart replays the log (from the latest
// checkpoint) and loses no acknowledged write.
//
// Layout: <dir>/wal-<seq>.log, seq ascending. The highest-numbered segment
// is active (appended to); lower ones are sealed. A checkpoint rotates the
// active segment and deletes sealed segments whose records it covers.
// Record payloads are self-describing (a 1-byte format tag selects legacy
// JSON or the compact binary codec — see codec.go), so segments may mix
// encodings and a log written under either -wal-format replays unchanged.
//
// Durability is governed by the sync policy: SyncAlways fsyncs after every
// append (each acknowledged write survives power loss), SyncInterval
// fsyncs on a timer (a crash loses at most the last interval; process
// crashes alone lose nothing, the OS still has the pages), SyncNone leaves
// flushing to the OS. Open tolerates a torn tail — a partial final
// record is dropped and the file truncated back to the last complete
// record — but fails loudly on mid-log corruption, which indicates real
// data loss rather than an interrupted append. Records are read back in
// order through a TailReader (see tail.go), by the change feed and by
// crash recovery alike.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs on a background timer every 100ms (the default).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncNone never fsyncs explicitly (OS page cache decides).
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spelling ("always", "interval", "none")
// onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always|interval|none)", s)
	}
}

// Options configure a log.
type Options struct {
	// Sync is the sync policy (default SyncInterval).
	Sync SyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this size;
	// <= 0 means 16 MiB.
	SegmentBytes int64
	// Format is the payload encoding for newly appended records (default
	// FormatBinary). Decoding is self-describing, so reopening a log under
	// a different Format needs no migration — segments simply mix.
	Format Format
	// FS is the filesystem the log writes through (default the real OS).
	// The crash-consistency suite injects a faultfs.Faulty here.
	FS faultfs.FS
}

const (
	syncInterval        = 100 * time.Millisecond
	defaultSegmentBytes = 16 << 20
	segmentPrefix       = "wal-"
	segmentSuffix       = ".log"
)

// segment is one log file's bookkeeping.
type segment struct {
	seq     int
	path    string
	bytes   int64
	records int
	// maxVersion is the highest version any record in the segment carries
	// (a source record carries the version of the mutation after it; 0
	// for an empty segment), used to decide checkpoint truncation and
	// which sealed segments a TailReader skips.
	maxVersion uint64
}

// Stats summarizes the log for operational surfaces (/v1/stats).
type Stats struct {
	// Segments counts log files (sealed + active).
	Segments int
	// Bytes is the total size of all segments.
	Bytes int64
	// Records counts records across all segments.
	Records int
	// LastVersion is the highest record version ever appended or read at
	// open.
	LastVersion uint64
	// TornBytes counts bytes dropped from the tail at open (a partial
	// final record from an interrupted append).
	TornBytes int64
}

// Log is an open write-ahead log. Append, Sync, Rotate, TruncateThrough,
// Tail, and Stats are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	fs   faultfs.FS

	mu     sync.Mutex
	segs   []segment
	active faultfs.File
	dirty  bool
	// sticky records an append failure that could not be rolled back
	// (truncate failed); every subsequent append refuses with it, so the
	// log never silently diverges from what replay will reconstruct.
	sticky      error
	lastVersion uint64
	tornBytes   int64
	closed      bool

	stop     chan struct{}
	syncDone chan struct{}

	// m holds the observability handles (nil-safe no-ops until SetMetrics
	// installs real ones).
	m logMetrics
}

// logMetrics are the log's instrumentation handles. All obs handles are
// nil-receiver-safe, so an uninstrumented log records into nothing at
// negligible cost.
type logMetrics struct {
	appendSec *obs.Histogram
	fsyncSec  *obs.Histogram
	records   *obs.Counter
	bytes     *obs.Counter
	rotations *obs.Counter
}

// SetMetrics registers the log's metrics in reg and installs the hot-path
// handles. Call once, before concurrent appends begin (durable.Store does
// this during assembly). Exported metric names are documented in
// README.md.
func (l *Log) SetMetrics(reg *obs.Registry) {
	l.m = logMetrics{
		appendSec: reg.HistogramBuckets("verifai_wal_append_seconds", "Latency of WAL appends, fsync included under the always policy.", obs.IOBuckets),
		fsyncSec:  reg.HistogramBuckets("verifai_wal_fsync_seconds", "Latency of WAL fsync calls (stalls show up here).", obs.IOBuckets),
		records:   reg.Counter("verifai_wal_appended_records_total", "Records appended to the WAL."),
		bytes:     reg.Counter("verifai_wal_appended_bytes_total", "Bytes appended to the WAL."),
		rotations: reg.Counter("verifai_wal_rotations_total", "Segment rotations (checkpoint forks and size rollovers)."),
	}
	reg.GaugeFunc("verifai_wal_segments", "Current WAL segment files (sealed + active).",
		func() float64 { return float64(l.Stats().Segments) })
	reg.GaugeFunc("verifai_wal_bytes", "Current total WAL size in bytes.",
		func() float64 { return float64(l.Stats().Bytes) })
	reg.GaugeFunc("verifai_wal_poisoned", "Whether the log refuses every append since an fsync, a rollback or a rotation failed (1) or accepts them (0).",
		func() float64 {
			if l.Poisoned() != nil {
				return 1
			}
			return 0
		})
}

// ErrReadOnly wraps the error every append to a poisoned log returns: once
// an fsync, the rollback of a failed write or a rotation has failed, the
// log can no longer tell what is on disk, so it acknowledges nothing more
// until it is reopened. The wrapped message gives the failure.
var ErrReadOnly = errors.New("wal: log is read-only")

// Poisoned returns the error that made the log read-only (wrapping
// ErrReadOnly), or nil while it accepts appends.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sticky
}

// Open opens (or creates) the log in dir and replays every record through
// fn in append order. A torn final record is dropped and the file
// truncated; corruption anywhere else fails loudly. fn returning an error
// aborts the open. After Open returns, the log is positioned to append.
func Open(dir string, opts Options, fn func(Record) error) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}
	seqs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		if err := l.replaySegment(seq, i == len(seqs)-1, fn); err != nil {
			return nil, err
		}
	}
	if len(l.segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := &l.segs[len(l.segs)-1]
		f, err := l.fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		l.active = f
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(fs faultfs.FS, dir string) ([]int, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %q", name)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// replaySegment reads one segment, delivering records to fn. In the last
// (active) segment a torn tail is truncated away; anywhere else it is an
// error, as is any CRC or decode failure.
func (l *Log) replaySegment(seq int, last bool, fn func(Record) error) error {
	path := segmentPath(l.dir, seq)
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	seg := segment{seq: seq, path: path}
	end, err := walkFrames(path, data, func(rec Record) error {
		if fn != nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
		seg.records++
		seg.maxVersion = max(seg.maxVersion, rec.Version)
		l.lastVersion = max(l.lastVersion, rec.Version)
		return nil
	})
	if err != nil {
		return err
	}
	if end < len(data) {
		if !last {
			return fmt.Errorf("wal: segment %s: truncated record at offset %d in sealed segment", filepath.Base(path), end)
		}
		if err := l.fs.Truncate(path, int64(end)); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		l.tornBytes += int64(len(data) - end)
	}
	seg.bytes = int64(end)
	l.segs = append(l.segs, seg)
	return nil
}

// walkFrames passes each complete frame of one segment's bytes to fn in
// order and returns the offset where they end: len(data), or the start of
// a torn final frame. Corruption fails naming the segment; an error from
// fn is returned as it is.
func walkFrames(path string, data []byte, fn func(Record) error) (end int, err error) {
	for end < len(data) {
		rec, next, torn, err := DecodeFrame(data, end)
		if err != nil {
			return end, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if torn {
			break
		}
		if err := fn(rec); err != nil {
			return end, err
		}
		end = next
	}
	return end, nil
}

// openSegment creates a fresh active segment with the given sequence and
// fsyncs the log directory so the new file's entry survives power loss
// (fsync of a file alone does not persist its directory entry). Caller
// holds mu (or is still single-goroutine during Open).
func (l *Log) openSegment(seq int) error {
	path := segmentPath(l.dir, seq)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if l.opts.Sync != SyncNone {
		if err := syncPath(l.fs, l.dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: sync log dir: %w", err)
		}
	}
	l.segs = append(l.segs, segment{seq: seq, path: path})
	l.active = f
	return nil
}

// syncPath fsyncs a file or directory by path.
func syncPath(fs faultfs.FS, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	serr := f.Sync()
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Append durably stages records at the log's tail: all frames are written
// with a single write call, then fsynced per the sync policy. The error
// contract matters for the lake's commit protocol: a non-nil return means
// the records are NOT in the log (the caller's commit aborts and its
// versions are released, so the log and the lake cannot drift apart). On
// a write error the file is truncated back to the pre-append offset; if
// the rollback fails — or an fsync fails, after which the kernel's view
// of the file is unreliable — the log poisons itself and every later
// Append refuses with the same error.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := EncodeFrameFormat(&buf, rec, l.opts.Format); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	seg := &l.segs[len(l.segs)-1]
	prev := seg.bytes
	if _, err := l.active.Write(buf.Bytes()); err != nil {
		if terr := l.active.Truncate(prev); terr != nil {
			l.sticky = fmt.Errorf("%w: append failed (%v) and rollback failed (%v)", ErrReadOnly, err, terr)
			return l.sticky
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		if err := l.active.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages (a retry would falsely succeed): roll the frames back
			// best-effort and refuse all further appends.
			_ = l.active.Truncate(prev)
			l.sticky = fmt.Errorf("%w: fsync failed (%v)", ErrReadOnly, err)
			return l.sticky
		}
		l.dirty = false
	}
	// Bookkeeping only after the frames are in the log for good.
	seg.bytes = prev + int64(buf.Len())
	seg.records += len(recs)
	for _, rec := range recs {
		seg.maxVersion = max(seg.maxVersion, rec.Version)
		l.lastVersion = max(l.lastVersion, rec.Version)
	}
	if seg.bytes >= l.opts.SegmentBytes {
		// A rotate failure poisons the log (inside rotateLocked); only
		// future appends are at risk. This append still reports success —
		// the records ARE in the log, as durable as the policy promises,
		// and an error here would abort a commit whose released version
		// would then be reused, corrupting replay.
		_, _ = l.rotateLocked()
	}
	l.m.records.Add(uint64(len(recs)))
	l.m.bytes.Add(uint64(buf.Len()))
	l.m.appendSec.Since(start)
	return nil
}

// Sync fsyncs the active segment if it has unsynced writes. An fsync
// failure poisons the log: on Linux a failed fsync drops the pages' dirty
// state, so a retry would falsely report success — the only safe move is
// to stop acknowledging writes.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.sticky != nil {
		return l.sticky
	}
	if !l.dirty || l.active == nil {
		return nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.sticky = fmt.Errorf("%w: fsync failed (%v)", ErrReadOnly, err)
		return l.sticky
	}
	l.m.fsyncSec.Since(start)
	l.dirty = false
	return nil
}

// Rotate seals the active segment (fsynced and closed) and opens a fresh
// one, returning the sealed segment's sequence number so a following
// TruncateThrough can be scoped to segments sealed at or before this
// rotation point. A checkpoint rotates at its fork point and truncates
// once the snapshot is durable.
func (l *Log) Rotate() (sealed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	return l.rotateLocked()
}

// rotateLocked seals the active segment and opens the next one. A partial
// rotation (sealed but no new segment, or a close that may have lost
// buffered writes) leaves no segment safe to append to, so it poisons the
// log rather than let a later Append dereference a nil active file or
// write after a failed close.
func (l *Log) rotateLocked() (int, error) {
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	if err := l.active.Close(); err != nil {
		l.active = nil
		l.sticky = fmt.Errorf("%w: close sealed segment (%v)", ErrReadOnly, err)
		return 0, l.sticky
	}
	l.active = nil
	sealed := l.segs[len(l.segs)-1].seq
	if err := l.openSegment(sealed + 1); err != nil {
		l.sticky = fmt.Errorf("%w: rotate failed (%v)", ErrReadOnly, err)
		return 0, l.sticky
	}
	l.m.rotations.Inc()
	return sealed, nil
}

// TruncateThrough deletes sealed segments with sequence <= throughSeq
// whose every record is covered by a checkpoint at version v (their
// highest record version is <= v). A source registered after the fork
// carries a version above v, so its segment survives; the sequence bound
// keeps a segment sealed after the fork's rotation point out of reach
// all the same, since the checkpoint's write phase overlaps ingestion and
// a log written before sources carried the next mutation's version may
// stamp such a registration at or below v. The active segment is never
// deleted.
// A segment whose file refuses to unlink stays tracked (retried at the
// next checkpoint); one already gone counts as removed.
func (l *Log) TruncateThrough(v uint64, throughSeq int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := make([]segment, 0, len(l.segs))
	var firstErr error
	for i, seg := range l.segs {
		if i < len(l.segs)-1 && seg.seq <= throughSeq && seg.maxVersion <= v {
			err := l.fs.Remove(seg.path)
			if err == nil || errors.Is(err, os.ErrNotExist) {
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: remove sealed segment: %w", err)
			}
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return firstErr
}

// Format reports the payload encoding new appends use. Existing records
// keep whatever encoding they were written with.
func (l *Log) Format() Format { return l.opts.Format }

// Stats reports the log's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{Segments: len(l.segs), LastVersion: l.lastVersion, TornBytes: l.tornBytes}
	for _, seg := range l.segs {
		s.Bytes += seg.bytes
		s.Records += seg.records
	}
	return s
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// An fsync failure poisons the log inside Sync, so the error
			// is not lost: every subsequent Append (and Close) reports it.
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Close fsyncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}
