package vecindex

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/binfmt"
)

// Frozen is one sealed SQFlat segment, produced by Freeze under the index's
// lock and written later by Save with no index locks held — the two phases
// of a checkpoint: the live index keeps absorbing writes while a capture
// streams to disk. The live index searches it as its base, a retained
// snapshot searches it through Thaw, Save writes its bytes, and Adopt swaps
// those bytes for the mapping of the file Save wrote.
type Frozen struct {
	// seg views the sealed heap buffer until Adopt, the mapped file after;
	// both hold the same bytes, so a search may load either.
	seg atomic.Pointer[segment]
}

func newFrozen(seg *segment) *Frozen {
	z := new(Frozen)
	z.seg.Store(seg)
	return z
}

// Save serializes the segment to w as one binfmt container.
func (z *Frozen) Save(w io.Writer) error {
	if _, err := z.seg.Load().r.WriteTo(w); err != nil {
		return fmt.Errorf("vecindex: write snapshot: %w", err)
	}
	return nil
}

// Adopt moves the segment, and so every index sharing it, onto the file at
// path, which must be the file Save wrote (same container identity): it
// opens path as OpenSQFile does and switches the column views to its
// mapping. Same bytes, same ordinals: searches, tombstones and tails are
// unaffected, while the heap copy becomes garbage. On any error nothing
// moves.
func (z *Frozen) Adopt(path string) error {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return fmt.Errorf("vecindex: %w", err)
	}
	if got, want := fr.ID(), z.seg.Load().r.ID(); got != want {
		return fmt.Errorf("vecindex: %s holds container %+v, segment wrote %+v", path, got, want)
	}
	seg, err := loadSegment(fr)
	if err != nil {
		return err
	}
	z.seg.Store(seg)
	return nil
}

// Thaw wraps the segment as an index of its own, for reads pinned to the
// version it was frozen at: base shared, a fresh tombstone bitmap, an empty
// tail.
func (z *Frozen) Thaw() *SQFlat {
	s := NewSQFlat(z.seg.Load().dim)
	s.setBase(z)
	return s
}

// OpenSQFile opens a segment file memory-mapped as an index over it; the
// index serves zero-copy views of the mapping.
func OpenSQFile(path string) (*SQFlat, error) {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("vecindex: %w", err)
	}
	seg, err := loadSegment(fr)
	if err != nil {
		return nil, err
	}
	return newFrozen(seg).Thaw(), nil
}
