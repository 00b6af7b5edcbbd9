package datalake

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultSnapshotRetain is the keep-last-N retention window for unpinned
// snapshots when the registry is built with retain <= 0.
const DefaultSnapshotRetain = 8

// ErrSnapshotNotFound marks a version with no retained snapshot: the
// version may be real (the lake passed through it) but nothing pinned it,
// so there is no View to read at it.
var ErrSnapshotNotFound = errors.New("datalake: no snapshot retained at version")

// BelowFloorError marks a version older than the oldest retained
// snapshot: the data existed once but retention has let it go, so the
// caller cannot get it back by pinning. Floor names the oldest version
// still readable (mirrors the CDC change-feed floor semantics).
type BelowFloorError struct {
	Version uint64 // the requested version
	Floor   uint64 // the oldest retained snapshot version
}

func (e *BelowFloorError) Error() string {
	return fmt.Sprintf("datalake: version %d is below the snapshot retention floor %d", e.Version, e.Floor)
}

// Snapshot is one retained, refcounted pin of the lake at a version: the
// immutable catalog View plus an opaque payload attached by the layer
// that took the snapshot (the pipeline hangs a trust-map copy here and,
// for an explicit pin, frozen index shards). Handles are acquired from the registry and must
// be Released; the payload of a snapshot evicted by retention is dropped
// only once the last in-flight reader releases it, so a reader can never
// observe a freed snapshot.
type Snapshot struct {
	reg     *SnapshotRegistry
	id      uint64 // registry-unique, distinguishes re-pins of one version
	version uint64
	view    *View
	created time.Time

	// Guarded by reg.mu.
	payload any
	pinned  bool
	refs    int
	retired bool // evicted from the registry; payload drops at refs==0
}

// Version returns the lake version the snapshot is pinned at.
func (s *Snapshot) Version() uint64 { return s.version }

// ID returns the registry-unique snapshot identity. Two snapshots at the
// same version (a pin evicted and later re-registered) get distinct IDs,
// so derived state (e.g. cached pinned verdicts) keyed by ID can never
// leak across pin generations.
func (s *Snapshot) ID() uint64 { return s.id }

// View returns the immutable catalog view pinned at the snapshot version.
func (s *Snapshot) View() *View { return s.view }

// Payload returns the opaque attachment supplied at Add time. Valid for
// the lifetime of an acquired handle (the registry never drops the
// payload while any reader holds a reference).
func (s *Snapshot) Payload() any {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return s.payload
}

// Release returns an acquired handle. The handle must not be used after
// Release; releasing the last reference to an evicted snapshot frees its
// payload.
func (s *Snapshot) Release() {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if s.refs <= 0 {
		panic("datalake: Snapshot.Release without a matching Acquire")
	}
	s.refs--
	if s.retired && s.refs == 0 {
		s.payload = nil
	}
}

// SnapshotInfo is the registry's externally visible record of one
// retained snapshot.
type SnapshotInfo struct {
	Version uint64    `json:"version"`
	Pinned  bool      `json:"pinned"`
	Readers int       `json:"readers"` // in-flight acquired handles
	Created time.Time `json:"created"`
}

// SnapshotRegistry retains queryable snapshots of the lake: every
// checkpoint (or explicit pin) registers one, a keep-last-N policy bounds
// the unpinned population, and explicit pins are retained until unpinned.
// Eviction never invalidates an in-flight reader — an acquired handle
// stays readable until released, after which the payload is freed.
type SnapshotRegistry struct {
	mu     sync.Mutex
	snaps  map[uint64]*Snapshot
	order  []uint64 // retained versions, ascending
	retain int      // keep-last-N unpinned snapshots
	nextID uint64   // snapshot identity counter
}

// NewSnapshotRegistry builds a registry retaining the last retain
// unpinned snapshots (retain <= 0 selects DefaultSnapshotRetain).
func NewSnapshotRegistry(retain int) *SnapshotRegistry {
	if retain <= 0 {
		retain = DefaultSnapshotRetain
	}
	return &SnapshotRegistry{snaps: make(map[uint64]*Snapshot), retain: retain}
}

// SetMetrics registers snapshot gauges on reg: retained/pinned counts and
// the age of the oldest retained snapshot.
func (r *SnapshotRegistry) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("verifai_snapshots_retained", "Snapshots currently retained (pinned + retention window).", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.order))
	})
	reg.GaugeFunc("verifai_snapshots_pinned", "Snapshots retained by an explicit pin.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		n := 0
		for _, v := range r.order {
			if r.snaps[v].pinned {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("verifai_snapshot_oldest_age_seconds", "Age of the oldest retained snapshot.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		if len(r.order) == 0 {
			return 0
		}
		return time.Since(r.snaps[r.order[0]].created).Seconds()
	})
}

// Add registers a snapshot of view with an opaque payload, returning the
// retained record. Registering an already-retained version keeps the
// existing snapshot (its readers stay valid) and only promotes it to
// pinned when asked; the new payload is discarded. Retention runs
// immediately: unpinned snapshots beyond the keep-last-N window are
// evicted oldest-first.
func (r *SnapshotRegistry) Add(view *View, payload any, pinned bool) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.snaps[view.Version()]; ok {
		if pinned {
			s.pinned = true
		}
		return s
	}
	r.nextID++
	s := &Snapshot{reg: r, id: r.nextID, version: view.Version(), view: view, payload: payload, pinned: pinned, created: time.Now()}
	r.snaps[s.version] = s
	r.order = append(r.order, s.version)
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
	r.gcLocked()
	return s
}

// gcLocked evicts unpinned snapshots beyond the retention window, oldest
// first. Evicted snapshots with in-flight readers keep their payload
// until the last Release.
func (r *SnapshotRegistry) gcLocked() {
	unpinned := 0
	for _, v := range r.order {
		if !r.snaps[v].pinned {
			unpinned++
		}
	}
	if unpinned <= r.retain {
		return
	}
	keep := r.order[:0]
	for _, v := range r.order {
		s := r.snaps[v]
		if !s.pinned && unpinned > r.retain {
			unpinned--
			s.retired = true
			if s.refs == 0 {
				s.payload = nil
			}
			delete(r.snaps, v)
			continue
		}
		keep = append(keep, v)
	}
	r.order = keep
}

// Acquire takes a read handle on the snapshot at version. The caller must
// Release it. A missing version distinguishes "below the retention floor"
// (BelowFloorError, carrying the floor) from "never retained"
// (ErrSnapshotNotFound).
func (r *SnapshotRegistry) Acquire(version uint64) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.snaps[version]
	if !ok {
		if len(r.order) > 0 && version < r.order[0] {
			return nil, &BelowFloorError{Version: version, Floor: r.order[0]}
		}
		return nil, fmt.Errorf("%w %d", ErrSnapshotNotFound, version)
	}
	s.refs++
	return s, nil
}

// Unpin clears the explicit pin at version; the snapshot rejoins the
// keep-last-N window and is evicted immediately when already beyond it.
// In-flight readers stay valid.
func (r *SnapshotRegistry) Unpin(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.snaps[version]
	if !ok {
		return fmt.Errorf("%w %d", ErrSnapshotNotFound, version)
	}
	s.pinned = false
	r.gcLocked()
	return nil
}

// List returns the retained snapshots, oldest first.
func (r *SnapshotRegistry) List() []SnapshotInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SnapshotInfo, 0, len(r.order))
	for _, v := range r.order {
		s := r.snaps[v]
		out = append(out, SnapshotInfo{Version: v, Pinned: s.pinned, Readers: s.refs, Created: s.created})
	}
	return out
}

// Floor returns the oldest retained snapshot version (0 when none is
// retained): the time-travel read floor, mirroring the CDC feed's WAL
// floor.
func (r *SnapshotRegistry) Floor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return 0
	}
	return r.order[0]
}

// Latest returns the newest retained snapshot version (0 when none).
func (r *SnapshotRegistry) Latest() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return 0
	}
	return r.order[len(r.order)-1]
}
