package durable

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datalake"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// This file is the durable layer's replication surface: the leader side
// (serving its WAL and shipping its checkpoint for bootstrap) and the
// follower side (applying a replicated change stream, the one apply path
// crash recovery uses for its own log).

// ErrNoCheckpoint reports a store that has never checkpointed — a
// bootstrapping follower should stream the leader's WAL from version 0
// instead.
var ErrNoCheckpoint = errors.New("durable: no checkpoint")

// ErrReplicaGap reports a change stream (a leader's, or the local WAL at
// recovery) whose next record skips past the version the store expects:
// applying it would silently lose the gap, so the applier stops there.
var ErrReplicaGap = errors.New("durable: replicated stream has a version gap")

// WAL exposes the store's log for change-feed serving. Consumers use it
// read-only (wal.Log.Tail); appends stay the exclusive business of the
// lake's durability hooks.
func (s *Store) WAL() *wal.Log { return s.log }

// ApplyReplicated applies one ordered batch of change-stream records to a
// follower store; crash recovery (ReplayTail) applies its own log through
// it too, so the two can never drift in semantics. Sources re-register
// unconditionally (idempotent overwrite); each run of events between them
// commits through the lake's replication write path as one batch (the
// change feed's client and ReplayTail pass at most 256 records), each
// asserted to recommit as its logged version. Event versions at or below
// the lake's committed version are skipped — a resumed stream may overlap
// the cursor, a recovered log the checkpoint — and one beyond committed+1
// is ErrReplicaGap, returned once the records before it are applied. With
// the store Armed, every applied record also lands in the follower's own
// WAL, so a restarted follower recovers its cursor from local disk.
// Returns the number of records applied (skips excluded).
func (s *Store) ApplyReplicated(recs []wal.Record) (int, error) {
	applied := 0
	var pending []wal.Record
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		items := make([]datalake.BatchItem, len(pending))
		for i, rec := range pending {
			items[i] = datalake.BatchItem{Table: rec.Table, Doc: rec.Doc, Triple: rec.Triple}
		}
		results, err := s.lake.ReplicateBatch(items)
		if err != nil {
			return fmt.Errorf("durable: replicate batch: %w", err)
		}
		for i, res := range results {
			if res.Err != nil {
				return fmt.Errorf("durable: replicate record (version %d): %w", pending[i].Version, res.Err)
			}
			if res.Version != pending[i].Version {
				return fmt.Errorf("durable: replicate drift: record logged as version %d recommitted as %d", pending[i].Version, res.Version)
			}
		}
		applied += len(pending)
		pending = pending[:0]
		return nil
	}
	next := s.lake.CommittedVersion() + 1
	for _, rec := range recs {
		if rec.Kind == wal.KindSource {
			if err := flush(); err != nil {
				return applied, err
			}
			if rec.Source == nil {
				return applied, fmt.Errorf("durable: replicated source record without payload")
			}
			if err := s.lake.ReplicateSource(*rec.Source); err != nil {
				return applied, fmt.Errorf("durable: replicate source %q: %w", rec.Source.ID, err)
			}
			applied++
			continue
		}
		switch {
		case rec.Version < next:
			continue // stream overlap: already committed locally
		case rec.Version > next:
			// Commit the contiguous run before the gap first: it is applied,
			// and the count says so.
			if err := flush(); err != nil {
				return applied, err
			}
			return applied, fmt.Errorf("%w: have %d, stream jumped to %d", ErrReplicaGap, next-1, rec.Version)
		}
		pending = append(pending, rec)
		next++
	}
	return applied, flush()
}

// WriteCheckpointTar streams the current checkpoint directory as a tar
// archive (paths relative to the checkpoint root) for follower bootstrap.
// Catalog, index shards, and META all ship, so the receiver can
// RestoreCheckpointTar and Open. The walk holds the swap guard shared: a
// checkpoint finishing mid-stream waits to promote rather than renaming
// the directory out from under the stream. Checkpoint contents are
// immutable once promoted, so the files themselves never change under us.
func (s *Store) WriteCheckpointTar(w io.Writer) error {
	s.swapMu.RLock()
	defer s.swapMu.RUnlock()
	dir := s.checkpointDir()
	meta, err := readCheckpointMeta(s.fs, dir)
	if err != nil {
		return err
	}
	if meta == nil {
		return ErrNoCheckpoint
	}
	tw := tar.NewWriter(w)
	if err := s.tarDir(tw, dir, ""); err != nil {
		return err
	}
	return tw.Close()
}

// tarDir recursively writes dir's entries under the archive prefix rel.
func (s *Store) tarDir(tw *tar.Writer, dir, rel string) error {
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: tar checkpoint: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		arch := name
		if rel != "" {
			arch = rel + "/" + name
		}
		if e.IsDir() {
			if err := tw.WriteHeader(&tar.Header{Name: arch + "/", Typeflag: tar.TypeDir, Mode: 0o755}); err != nil {
				return err
			}
			if err := s.tarDir(tw, path, arch); err != nil {
				return err
			}
			continue
		}
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("durable: tar checkpoint read %s: %w", arch, err)
		}
		if err := tw.WriteHeader(&tar.Header{Name: arch, Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(data))}); err != nil {
			return err
		}
		if _, err := tw.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// HasCheckpoint reports whether dir holds a recoverable checkpoint
// (current, or a .old left by an interrupted swap) without opening the
// store. OpenFollower uses it to decide between bootstrapping from the
// leader and resuming from local state.
func HasCheckpoint(dir string) (bool, error) {
	cur := filepath.Join(dir, "checkpoint")
	for _, d := range []string{cur, cur + ".old"} {
		meta, err := readCheckpointMeta(faultfs.OS, d)
		if err != nil {
			return false, err
		}
		if meta != nil {
			return true, nil
		}
	}
	return false, nil
}

// RestoreCheckpointTar bootstraps a data directory from a leader's
// checkpoint tar: the archive unpacks into checkpoint.boot, the tree is
// fsynced, and a rename promotes it — a crash mid-restore leaves no
// half-valid checkpoint, just a stale .boot the next restore clears. It
// refuses a directory that already has a checkpoint: bootstrap is for
// empty followers, and silently overwriting local durable state would be
// data loss.
func RestoreCheckpointTar(dir string, r io.Reader) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: mkdir: %w", err)
	}
	if has, err := HasCheckpoint(dir); err != nil {
		return err
	} else if has {
		return fmt.Errorf("durable: %s already holds a checkpoint; refusing to overwrite it with a bootstrap", dir)
	}
	cur := filepath.Join(dir, "checkpoint")
	boot := cur + ".boot"
	if err := os.RemoveAll(boot); err != nil {
		return fmt.Errorf("durable: clear checkpoint.boot: %w", err)
	}
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("durable: read checkpoint tar: %w", err)
		}
		name := filepath.Clean(filepath.FromSlash(hdr.Name))
		if name == "." {
			continue
		}
		if filepath.IsAbs(name) || name == ".." || strings.HasPrefix(name, ".."+string(filepath.Separator)) {
			return fmt.Errorf("durable: checkpoint tar entry escapes root: %q", hdr.Name)
		}
		dst := filepath.Join(boot, name)
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(dst, 0o755); err != nil {
				return fmt.Errorf("durable: restore mkdir %s: %w", name, err)
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return fmt.Errorf("durable: restore mkdir for %s: %w", name, err)
			}
			f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return fmt.Errorf("durable: restore create %s: %w", name, err)
			}
			_, cerr := io.Copy(f, tr) // tar.Reader bounds the copy to hdr.Size
			if err := f.Close(); cerr == nil {
				cerr = err
			}
			if cerr != nil {
				return fmt.Errorf("durable: restore write %s: %w", name, cerr)
			}
		default:
			return fmt.Errorf("durable: checkpoint tar entry %q has unsupported type %d", hdr.Name, hdr.Typeflag)
		}
	}
	if meta, err := readCheckpointMeta(faultfs.OS, boot); err != nil {
		return err
	} else if meta == nil {
		return fmt.Errorf("durable: checkpoint tar carries no %s", metaFile)
	}
	if err := syncTree(faultfs.OS, boot); err != nil {
		return fmt.Errorf("durable: sync restored checkpoint: %w", err)
	}
	if err := os.Rename(boot, cur); err != nil {
		return fmt.Errorf("durable: promote restored checkpoint: %w", err)
	}
	if err := syncDir(faultfs.OS, dir); err != nil {
		return fmt.Errorf("durable: sync data dir: %w", err)
	}
	return nil
}
