package vecindex

import (
	"fmt"
	"io"
	"sync"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/embed"
)

// Frozen is an immutable capture of one index's live contents, produced
// by Freeze under the index's lock and written later by Save with no index
// locks held — the two phases of a checkpoint: the live index keeps
// absorbing writes while a capture streams to disk. An SQFlat capture is
// the sealed segment the index goes on searching (quant.go); an IVF or LSH
// capture copies ID and vector references (vectors are never mutated in
// place after Add).
type Frozen interface {
	// Save serializes the capture to w as one binfmt container.
	Save(w io.Writer) error
	// Adopt moves the capture, and the live index still serving what it
	// captured, onto the file at path, which must be the file Save wrote
	// (same container identity). Same bytes, same ordinals: searches are
	// unaffected. On any error nothing moves.
	Adopt(path string) error
	// Thaw returns a searchable index over the capture, for reads pinned
	// to the version it was frozen at. An SQFlat segment is wrapped in
	// place; an IVF or LSH capture is opened from the saved file once
	// adopted, and encoded into memory and opened from there before that.
	Thaw() (Index, error)
}

func (z *sealedRows) Save(w io.Writer) error {
	if _, err := z.seg.Load().r.WriteTo(w); err != nil {
		return fmt.Errorf("vecindex: write snapshot: %w", err)
	}
	return nil
}

// Adopt opens path as OpenSQFile opens a snapshot and switches the column
// views to its mapping: every index sharing the segment keeps its
// tombstones and tail, while the heap copy becomes garbage.
func (z *sealedRows) Adopt(path string) error {
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

// Thaw wraps the segment as an index of its own: base shared, a fresh
// tombstone bitmap, an empty tail.
func (z *sealedRows) Thaw() (Index, error) { return z.index(), nil }

func (z *sealedRows) index() *SQFlat {
	s := NewSQFlat(z.seg.Load().dim)
	s.setBase(z)
	return s
}

func decodeSQ(fr *binfmt.Reader) (*SQFlat, error) {
	seg, err := loadSegment(fr)
	if err != nil {
		return nil, err
	}
	return newSealedRows(seg).index(), nil
}

// OpenSQFile opens a segment file memory-mapped as an index over it.
func OpenSQFile(path string) (*SQFlat, error) { return openSnapshot(path, decodeSQ) }

// rows is the part of a capture every family shares: the live IDs and
// their vectors, by reference.
type rows struct {
	IDs  []string
	Vecs []embed.Vector
}

func (r *rows) live() *rows { return r }

// snapshot is a family's capture struct: rows, embedded, plus its own
// parameters and columns.
type snapshot interface {
	encode(*binfmt.Writer) error
	live() *rows
}

// frozenSnap is the Frozen of the float-row families. Until Adopt it is
// snap, sharing rows with the live index; afterwards it is the saved file
// and nothing else.
type frozenSnap struct {
	owner *store // the live index's rows
	mu    sync.Mutex
	snap  snapshot       // nil once adopted
	pin   *binfmt.Reader // container snap's mapped views sit in; once adopted, the capture
	wrote binfmt.ID      // container the last Save produced
}

// capture wraps a family's snapshot struct as a Frozen that keeps alive the
// mapping the index's rows and columns may be views of. Caller holds the
// read lock.
func (s *store) capture(snap snapshot) Frozen {
	return &frozenSnap{owner: s, snap: snap, pin: s.pin}
}

func (z *frozenSnap) Save(w io.Writer) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.snap == nil {
		_, err := z.pin.WriteTo(w)
		return err
	}
	bw := binfmt.NewWriter()
	if err := z.snap.encode(bw); err != nil {
		return err
	}
	if _, err := bw.WriteTo(w); err != nil {
		return fmt.Errorf("vecindex: write snapshot: %w", err)
	}
	z.wrote = bw.ID()
	return nil
}

func (z *frozenSnap) Thaw() (Index, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	fr := z.pin
	if z.snap != nil {
		bw := binfmt.NewWriter()
		err := z.snap.encode(bw)
		if err == nil {
			fr, err = bw.Build()
		}
		if err != nil {
			return nil, err
		}
	}
	var meta binMeta
	if err := fr.JSON("meta", &meta); err != nil {
		return nil, err
	}
	if meta.Family == "ivf" {
		return decodeIVF(fr)
	}
	return decodeLSH(fr)
}

// Adopt moves the live index's vector rows off the heap onto the file at
// path: every live row that still is the capture's row — same backing
// array, so an ID removed and re-added since the freeze keeps its new heap
// row — becomes a view of the file's row, and the capture becomes the
// file. The container the index viewed until now is let go, so whatever
// else still views it moves to the heap.
func (z *frozenSnap) Adopt(path string) error {
	s := z.owner
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return fmt.Errorf("vecindex: %w", err)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if got := fr.ID(); z.snap == nil || got != z.wrote {
		return fmt.Errorf("vecindex: %s holds container %+v, capture wrote %+v", path, got, z.wrote)
	}
	blob, err := fr.Float32s("vecs")
	if err != nil {
		return err
	}
	r := z.snap.live()
	dim := len(blob) / max(len(r.IDs), 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := 0 // live rows only
	for i, id := range r.IDs {
		if ord, ok := s.byID[id]; ok && &s.vecs[ord][0] == &r.Vecs[i][0] {
			s.vecs[ord] = blob[i*dim : (i+1)*dim : (i+1)*dim]
			if !s.deleted[ord] {
				moved++
			}
		}
	}
	// Rows the previous container still backs are tombstones the capture
	// skipped.
	for ord, v := range s.vecs {
		if s.inBlob(v) {
			s.vecs[ord] = embed.Clone(v)
		}
	}
	s.pin, s.blob, s.viewing = fr, blob, moved
	z.snap, z.pin = nil, fr
	return nil
}

// inBlob reports whether v is a view of the pinned container's rows.
func (s *store) inBlob(v embed.Vector) bool {
	if len(s.blob) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&v[0])), uintptr(unsafe.Pointer(&s.blob[0]))
	return p >= lo && p < lo+4*uintptr(len(s.blob))
}

// Residency reports where the index's live vector rows sit: bytes on the
// heap, bytes in the mapped snapshot file, and how many rows the heap
// share is. Tombstones awaiting compaction are not counted.
func (s *store) Residency() (heap, mapped int64, heapRows int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.live == 0 {
		return 0, 0, 0
	}
	row, views := int64(4*len(s.vecs[0])), 0
	if s.pin != nil && s.pin.Mapped() {
		views = s.viewing
	}
	return row * int64(s.live-views), row * int64(views), s.live - views
}

// openSnapshot memory-maps path, verifies it as a binfmt container, and
// decodes it; the decoded index serves zero-copy views of the mapping.
func openSnapshot[T any](path string, decode func(*binfmt.Reader) (T, error)) (T, error) {
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		var none T
		return none, fmt.Errorf("vecindex: %w", err)
	}
	return decode(fr)
}

// ivfSnapshot is the serialized form of an IVF index (Faiss write_index
// for IndexIVFFlat). Cell assignments are stored explicitly rather than
// recomputed at load: k-means may terminate with assignments one E-step
// behind the final centroids, so "assign to nearest centroid on load"
// would silently shuffle vectors across cells and change probe results.
type ivfSnapshot struct {
	Metric int
	Dim    int
	NList  int
	NProbe int
	Seed   uint64

	Trained   bool
	Centroids [][]float32
	rows
	// Cells[i] is the cell of Vecs[i]; empty when untrained.
	Cells []int32
}

// Freeze captures the index's live vectors, trained centroids, and exact
// cell assignments. Tombstoned vectors are compacted away. Centroid
// references are safe to share: Train replaces the centroid slice
// wholesale, never mutating vectors in place.
func (ix *IVF) Freeze() Frozen {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := ivfSnapshot{
		Metric: int(ix.metric), Dim: ix.dim, NList: ix.nlist, NProbe: ix.nprobe, Seed: ix.seed,
		Trained: ix.trained,
		rows:    rows{IDs: make([]string, 0, ix.live), Vecs: make([]embed.Vector, 0, ix.live)},
	}
	for _, c := range ix.centroids {
		snap.Centroids = append(snap.Centroids, c)
	}
	// remap[ord] is the compacted index of live ordinal ord.
	remap := make(map[int]int, ix.live)
	for ord, v := range ix.vecs {
		if ix.deleted[ord] {
			continue
		}
		remap[ord] = len(snap.IDs)
		snap.IDs = append(snap.IDs, ix.ids[ord])
		snap.Vecs = append(snap.Vecs, v)
	}
	if ix.trained {
		snap.Cells = make([]int32, len(snap.IDs))
		for ci, cell := range ix.cells {
			for _, ord := range cell {
				if i, ok := remap[ord]; ok {
					snap.Cells[i] = int32(ci)
				}
			}
		}
	}
	return ix.capture(&snap)
}

// OpenIVFFile opens a snapshot file memory-mapped, restoring the trained
// centroids and exact cell assignments.
func OpenIVFFile(path string) (*IVF, error) { return openSnapshot(path, decodeIVF) }

// lshSnapshot is the serialized form of an LSH index. The hyperplane
// family is a pure function of (dim, nbits, ntables, seed), so only the
// parameters and live vectors are stored; load re-hashes each vector into
// identical buckets.
type lshSnapshot struct {
	Dim     int
	NBits   int
	NTables int
	Seed    uint64
	rows
}

// Freeze captures the index's live vectors. Tombstoned vectors are
// compacted away; the hyperplane family is a pure function of the stored
// parameters, so buckets are not captured.
func (ix *LSH) Freeze() Frozen {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := lshSnapshot{Dim: ix.dim, NBits: ix.nbits, NTables: ix.ntables, Seed: ix.seed, rows: ix.liveRows()}
	return ix.capture(&snap)
}

// OpenLSHFile opens a snapshot file memory-mapped (vectors are zero-copy
// views; signatures are re-hashed eagerly).
func OpenLSHFile(path string) (*LSH, error) { return openSnapshot(path, decodeLSH) }
