package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/datalake"
	"repro/internal/faultfs"
)

// Pinned time-travel snapshots survive restarts. Unpinned snapshots are a
// memory-only retention window (re-seeded by checkpoints), but an explicit
// pin is an operator promise — "this version stays readable" — so it gets
// the same durability treatment as the checkpoint:
//
//	<dir>/snapshots/MANIFEST.json   the validity marker: which pins exist
//	<dir>/snapshots/<version>/      one pin: catalog.vaib + indexes/
//
// The ordering makes the manifest the single source of truth. PersistPin
// writes the pin directory first (via a .tmp rename), fsyncs it, and only
// then rewrites the manifest atomically (.tmp → rename → dir fsync), so a
// crash at any filesystem operation leaves the old or the new manifest,
// never a torn one — and every version the surviving manifest lists has a
// complete directory. DropPin inverts the order: manifest first, then
// directory removal, so a crash leaves at worst an orphan directory, which
// RecoverPins sweeps. All manifest-path operations go through the store's
// (possibly fault-injected) filesystem; the crash-consistency suite
// drives every kill point.

// snapshotManifestFile is the pin set's validity marker, relative to the
// snapshots directory.
const snapshotManifestFile = "MANIFEST.json"

// snapshotManifest is the persisted pin set.
type snapshotManifest struct {
	Format int       `json:"format"`
	Pins   []PinMeta `json:"pins"`
}

// PinMeta describes one persisted pin.
type PinMeta struct {
	// Version is the lake version the pin retains.
	Version uint64 `json:"version"`
	// CreatedUnix is the pin wall-clock time (informational).
	CreatedUnix int64 `json:"created_unix"`
	// Trust is the pipeline's source-trust overrides at pin time, persisted
	// so a recovered pin re-verifies identically.
	Trust map[string]float64 `json:"trust,omitempty"`
}

// RecoveredPin is one pin resolved from disk at recovery: the caller
// reloads Dir's catalog (Store.LoadCatalog), fast-forwards it to Version,
// and re-registers the fork with the pipeline's snapshot registry.
type RecoveredPin struct {
	Version uint64
	Dir     string // pin directory (catalog at root, indexes/ beneath)
	Trust   map[string]float64
}

// SnapshotsDir is where the store keeps persisted pins.
func (s *Store) SnapshotsDir() string { return filepath.Join(s.dir, "snapshots") }

func (s *Store) pinDir(version uint64) string {
	return filepath.Join(s.SnapshotsDir(), strconv.FormatUint(version, 10))
}

// decodeSnapshotManifest parses and validates manifest bytes: format 1,
// strictly ascending non-zero versions (no duplicates), finite trust
// values in [0,1]. Reject-loudly beats tolerate-quietly here — a manifest
// that fails validation means the atomic-rewrite invariant broke, and
// serving a half-trusted pin set would quietly break reproducibility.
func decodeSnapshotManifest(data []byte) (*snapshotManifest, error) {
	var m snapshotManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: parse snapshot manifest: %w", err)
	}
	if m.Format != 1 {
		return nil, fmt.Errorf("durable: snapshot manifest format %d not supported", m.Format)
	}
	var prev uint64
	for i, p := range m.Pins {
		if p.Version == 0 {
			return nil, fmt.Errorf("durable: snapshot manifest pin %d has version 0", i)
		}
		if p.Version <= prev {
			return nil, fmt.Errorf("durable: snapshot manifest versions not strictly ascending at %d", p.Version)
		}
		prev = p.Version
		for src, t := range p.Trust {
			if math.IsNaN(t) || t < 0 || t > 1 {
				return nil, fmt.Errorf("durable: snapshot manifest pin %d: trust %g for %q outside [0,1]", p.Version, t, src)
			}
		}
	}
	return &m, nil
}

// readSnapshotManifest loads the current manifest; an absent file is an
// empty pin set, an unparsable one is an error (unlike checkpoint META,
// the manifest is never mid-write on disk — it is replaced by rename).
func (s *Store) readSnapshotManifest() (*snapshotManifest, error) {
	data, err := s.fs.ReadFile(filepath.Join(s.SnapshotsDir(), snapshotManifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return &snapshotManifest{Format: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read snapshot manifest: %w", err)
	}
	return decodeSnapshotManifest(data)
}

// writeSnapshotManifest atomically replaces the manifest: write to a .tmp
// sibling, fsync it, rename over the real name, fsync the directory. A
// crash at any step leaves the previous manifest readable.
func (s *Store) writeSnapshotManifest(m *snapshotManifest) error {
	dir := s.SnapshotsDir()
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: mkdir snapshots: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: marshal snapshot manifest: %w", err)
	}
	tmp := filepath.Join(dir, snapshotManifestFile+".tmp")
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("durable: write snapshot manifest: %w", err)
	}
	if err := syncDir(s.fs, tmp); err != nil {
		return fmt.Errorf("durable: sync snapshot manifest: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(dir, snapshotManifestFile)); err != nil {
		return fmt.Errorf("durable: promote snapshot manifest: %w", err)
	}
	if err := syncDir(s.fs, dir); err != nil {
		return fmt.Errorf("durable: sync snapshots dir: %w", err)
	}
	return nil
}

// PersistPin makes the pin at view's version durable: serialize the
// catalog (and, via writeIndexes, the frozen index shards) into the pin
// directory, fsync the tree, then admit the version into the manifest
// atomically. Persisting an already-manifested version only refreshes its
// trust map. The pin directory only becomes meaningful once the manifest
// lists it, so a crash mid-serialization costs nothing but an orphan
// directory swept at recovery.
func (s *Store) PersistPin(view *datalake.View, writeIndexes func(fs faultfs.FS, dir string) error, trust map[string]float64) error {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	m, err := s.readSnapshotManifest()
	if err != nil {
		return err
	}
	version := view.Version()
	exists := false
	for i := range m.Pins {
		if m.Pins[i].Version == version {
			m.Pins[i].Trust = trust
			exists = true
			break
		}
	}
	if !exists {
		dir := s.pinDir(version)
		tmp := dir + ".tmp"
		if err := s.fs.RemoveAll(tmp); err != nil {
			return fmt.Errorf("durable: clear pin tmp: %w", err)
		}
		if err := s.writeCatalog(view, tmp); err != nil {
			return err
		}
		if writeIndexes != nil {
			if err := writeIndexes(s.fs, tmp); err != nil {
				return fmt.Errorf("durable: save pin indexes: %w", err)
			}
		}
		if err := syncTree(s.fs, tmp); err != nil {
			return fmt.Errorf("durable: sync pin tree: %w", err)
		}
		if err := s.fs.RemoveAll(dir); err != nil {
			return fmt.Errorf("durable: clear stale pin dir: %w", err)
		}
		if err := s.fs.Rename(tmp, dir); err != nil {
			return fmt.Errorf("durable: promote pin dir: %w", err)
		}
		idx := len(m.Pins)
		for i, p := range m.Pins {
			if p.Version > version {
				idx = i
				break
			}
		}
		m.Pins = append(m.Pins, PinMeta{})
		copy(m.Pins[idx+1:], m.Pins[idx:])
		m.Pins[idx] = PinMeta{Version: version, CreatedUnix: time.Now().Unix(), Trust: trust}
	}
	return s.writeSnapshotManifest(m)
}

// DropPin removes a version from the durable pin set: manifest rewrite
// first (the pin stops being real the moment the rename lands), directory
// removal second. Dropping an unmanifested version is a no-op.
func (s *Store) DropPin(version uint64) error {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	m, err := s.readSnapshotManifest()
	if err != nil {
		return err
	}
	kept := m.Pins[:0]
	found := false
	for _, p := range m.Pins {
		if p.Version == version {
			found = true
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return nil
	}
	m.Pins = kept
	if err := s.writeSnapshotManifest(m); err != nil {
		return err
	}
	if err := s.fs.RemoveAll(s.pinDir(version)); err != nil {
		return fmt.Errorf("durable: remove pin dir: %w", err)
	}
	return nil
}

// RecoverPins resolves the durable pin set at startup: every manifested
// version with its directory and trust map, ready for re-registration.
// Directories the manifest does not list — pin serializations that crashed
// before their manifest admit, or removals that crashed after their
// manifest drop — are swept. A manifested version whose directory is
// missing is dropped from the manifest (it cannot be served); the write
// ordering makes that state unreachable short of external interference,
// but recovery repairs rather than wedges.
func (s *Store) RecoverPins() ([]RecoveredPin, error) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	m, err := s.readSnapshotManifest()
	if err != nil {
		return nil, err
	}
	root := s.SnapshotsDir()
	entries, err := s.fs.ReadDir(root)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("durable: read snapshots dir: %w", err)
	}
	manifested := make(map[string]bool, len(m.Pins))
	for _, p := range m.Pins {
		manifested[strconv.FormatUint(p.Version, 10)] = true
	}
	for _, e := range entries {
		if !e.IsDir() || manifested[e.Name()] {
			continue
		}
		if err := s.fs.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return nil, fmt.Errorf("durable: sweep orphan pin dir %q: %w", e.Name(), err)
		}
	}
	out := make([]RecoveredPin, 0, len(m.Pins))
	kept := m.Pins[:0]
	dropped := false
	for _, p := range m.Pins {
		dir := s.pinDir(p.Version)
		if _, err := s.fs.Stat(dir); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				dropped = true
				continue
			}
			return nil, fmt.Errorf("durable: stat pin dir: %w", err)
		}
		kept = append(kept, p)
		out = append(out, RecoveredPin{Version: p.Version, Dir: dir, Trust: p.Trust})
	}
	if dropped {
		m.Pins = kept
		if err := s.writeSnapshotManifest(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}
