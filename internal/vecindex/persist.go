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
// by the Freeze methods under the index's read lock (cheap: ID and vector
// *references* are copied, and vectors are never mutated in place after
// Add) and serialized later by Save with no index locks held. This is the
// clone-or-COW half of a two-phase checkpoint: the live index keeps
// absorbing writes while a frozen capture streams to disk.
type Frozen interface {
	// Save serializes the capture to w in the binfmt columnar layout.
	Save(w io.Writer) error
	// Thaw returns a searchable index over the capture, for reads pinned
	// to the version it was frozen at: over the saved file once the capture
	// is adopted; before that a Flat capture is wrapped in place (its rows
	// are shared, wherever they live) and the other families are encoded
	// into memory and opened from there.
	Thaw() (Index, error)
}

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

// frozenSnap is the one Frozen implementation behind all families. Until
// Adopt it is snap, sharing rows (and SQFlat's columns) with the live index;
// afterwards it is the saved file and nothing else.
type frozenSnap struct {
	mu    sync.Mutex
	snap  snapshot       // nil once adopted
	pin   *binfmt.Reader // container snap's mapped views sit in; once adopted, the capture
	wrote binfmt.ID      // container the last Save produced
}

// capture wraps a family's snapshot struct as a Frozen that keeps alive the
// mapping the index's rows and columns may be views of. Caller holds the
// read lock.
func (s *store) capture(snap snapshot) Frozen { return &frozenSnap{snap: snap, pin: s.pin} }

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
	switch s := z.snap.(type) {
	case nil:
	case *flatSnapshot:
		f := NewFlat(s.Dim, Metric(s.Metric))
		f.load(z.pin, s.IDs, s.Vecs)
		return f, nil
	default:
		bw := binfmt.NewWriter()
		err := s.encode(bw)
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
	switch meta.Family {
	case "flat":
		return decodeFlat(fr)
	case "ivf":
		return decodeIVF(fr)
	case "lsh":
		return decodeLSH(fr)
	default:
		return decodeSQ(fr)
	}
}

// Adopt moves vector rows off the heap onto the file at path, which must
// be the file z.Save wrote (same container identity; opened as the
// Open*File loaders open a snapshot): every live row that still is the
// capture's row — same backing array, so an ID removed and re-added since
// the freeze keeps its new heap row — becomes a view of the file's row, and
// the capture becomes the file. Same bytes, same ordinals: searches are
// unaffected. The container the index viewed until now is let go, so
// whatever else still views it moves to the heap. On any error nothing moves.
func (s *store) Adopt(z Frozen, path string) error { return s.adopt(z, path, nil) }

// adopt is Adopt for a family with columns of its own: columns, called with
// the write lock held, takes them off the container being let go.
func (s *store) adopt(z Frozen, path string, columns func()) error {
	zs := z.(*frozenSnap)
	fr, err := binfmt.OpenFile(path)
	if err != nil {
		return fmt.Errorf("vecindex: %w", err)
	}
	zs.mu.Lock()
	defer zs.mu.Unlock()
	if got := fr.ID(); zs.snap == nil || got != zs.wrote {
		return fmt.Errorf("vecindex: %s holds container %+v, capture wrote %+v", path, got, zs.wrote)
	}
	blob, err := fr.Float32s("vecs")
	if err != nil {
		return err
	}
	r := zs.snap.live()
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
	if columns != nil {
		columns()
	}
	s.pin, s.blob, s.viewing = fr, blob, moved
	zs.snap, zs.pin = nil, fr
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

// loadSnapshot buffers a snapshot stream, verifies it as a binfmt
// container, and decodes it.
func loadSnapshot[T any](r io.Reader, decode func(*binfmt.Reader) (T, error)) (T, error) {
	var none T
	data, err := io.ReadAll(r)
	if err != nil {
		return none, fmt.Errorf("vecindex: read snapshot: %w", err)
	}
	fr, err := binfmt.NewReader(data)
	if err != nil {
		return none, fmt.Errorf("vecindex: %w", err)
	}
	return decode(fr)
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

// flatSnapshot is the serialized form of a Flat index (the analogue of
// Faiss's write_index for IndexFlat).
type flatSnapshot struct {
	Metric int
	Dim    int
	rows
}

// Freeze captures the index's live vectors. Tombstoned (removed) vectors
// are compacted away, so a load round-trip yields only live entries.
func (f *Flat) Freeze() Frozen {
	f.mu.RLock()
	defer f.mu.RUnlock()
	snap := flatSnapshot{Metric: int(f.metric), Dim: f.dim, rows: f.liveRows()}
	return f.capture(&snap)
}

// LoadFlat reads a saved Flat capture. Streams read this way
// are fully buffered; use OpenFlatFile to serve from a mapped file.
func LoadFlat(r io.Reader) (*Flat, error) { return loadSnapshot(r, decodeFlat) }

// OpenFlatFile opens a snapshot file memory-mapped: vectors are served as
// zero-copy views of the mapping.
func OpenFlatFile(path string) (*Flat, error) { return openSnapshot(path, decodeFlat) }

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

// LoadIVF reads a saved IVF capture, restoring the trained
// centroids and exact cell assignments.
func LoadIVF(r io.Reader) (*IVF, error) { return loadSnapshot(r, decodeIVF) }

// OpenIVFFile opens a snapshot file memory-mapped.
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

// LoadLSH reads a saved LSH capture.
func LoadLSH(r io.Reader) (*LSH, error) { return loadSnapshot(r, decodeLSH) }

// OpenLSHFile opens a snapshot file memory-mapped (vectors are zero-copy
// views; signatures are re-hashed eagerly).
func OpenLSHFile(path string) (*LSH, error) { return openSnapshot(path, decodeLSH) }

// LoadSQ reads a saved SQFlat capture.
func LoadSQ(r io.Reader) (*SQFlat, error) { return loadSnapshot(r, decodeSQ) }

// OpenSQFile opens an SQFlat snapshot file, memory-mapping the container
// so vectors and code columns are zero-copy views.
func OpenSQFile(path string) (*SQFlat, error) { return openSnapshot(path, decodeSQ) }
