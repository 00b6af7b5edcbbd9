package vecindex

import (
	"fmt"
	"io"

	"repro/internal/binfmt"
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
}

// frozenSnap is the one Frozen implementation behind all families: snap
// holds a pointer to the concrete snapshot struct.
type frozenSnap struct{ snap any }

func (z *frozenSnap) Save(w io.Writer) error {
	bw := binfmt.NewWriter()
	var err error
	switch s := z.snap.(type) {
	case *flatSnapshot:
		err = encodeFlat(bw, s)
	case *ivfSnapshot:
		err = encodeIVF(bw, s)
	case *lshSnapshot:
		err = encodeLSH(bw, s)
	case *sqSnapshot:
		err = encodeSQ(bw, s)
	default:
		err = fmt.Errorf("vecindex: unknown snapshot type %T", z.snap)
	}
	if err != nil {
		return err
	}
	if _, err := bw.WriteTo(w); err != nil {
		return fmt.Errorf("vecindex: write snapshot: %w", err)
	}
	return nil
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
	IDs    []string
	Vecs   [][]float32
}

// Freeze captures the index's live vectors. Tombstoned (removed) vectors
// are compacted away, so a load round-trip yields only live entries.
func (f *Flat) Freeze() Frozen {
	f.mu.RLock()
	defer f.mu.RUnlock()
	snap := flatSnapshot{
		Metric: int(f.metric),
		Dim:    f.dim,
		IDs:    make([]string, 0, f.live),
		Vecs:   make([][]float32, 0, f.live),
	}
	for i, v := range f.vecs {
		if f.deleted[i] {
			continue
		}
		snap.IDs = append(snap.IDs, f.ids[i])
		snap.Vecs = append(snap.Vecs, v)
	}
	return &frozenSnap{snap: &snap}
}

// Save writes the index to w in the binfmt columnar layout (Freeze +
// Frozen.Save in one call).
func (f *Flat) Save(w io.Writer) error { return f.Freeze().Save(w) }

// LoadFlat reads a snapshot produced by Flat.Save. Streams read this way
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
	IDs       []string
	Vecs      [][]float32
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
		IDs:     make([]string, 0, ix.live),
		Vecs:    make([][]float32, 0, ix.live),
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
	return &frozenSnap{snap: &snap}
}

// Save writes the index to w in the binfmt columnar layout (Freeze +
// Frozen.Save in one call). Cell assignments are preserved exactly.
func (ix *IVF) Save(w io.Writer) error { return ix.Freeze().Save(w) }

// LoadIVF reads a snapshot produced by IVF.Save, restoring the trained
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
	IDs     []string
	Vecs    [][]float32
}

// Freeze captures the index's live vectors. Tombstoned vectors are
// compacted away; the hyperplane family is a pure function of the stored
// parameters, so buckets are not captured.
func (ix *LSH) Freeze() Frozen {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := lshSnapshot{
		Dim: ix.dim, NBits: ix.nbits, NTables: ix.ntables, Seed: ix.seed,
		IDs:  make([]string, 0, ix.live),
		Vecs: make([][]float32, 0, ix.live),
	}
	for ord, v := range ix.vecs {
		if ix.deleted[ord] {
			continue
		}
		snap.IDs = append(snap.IDs, ix.ids[ord])
		snap.Vecs = append(snap.Vecs, v)
	}
	return &frozenSnap{snap: &snap}
}

// Save writes the index to w in the binfmt columnar layout (Freeze +
// Frozen.Save in one call).
func (ix *LSH) Save(w io.Writer) error { return ix.Freeze().Save(w) }

// LoadLSH reads a snapshot produced by LSH.Save.
func LoadLSH(r io.Reader) (*LSH, error) { return loadSnapshot(r, decodeLSH) }

// OpenLSHFile opens a snapshot file memory-mapped (vectors are zero-copy
// views; signatures are re-hashed eagerly).
func OpenLSHFile(path string) (*LSH, error) { return openSnapshot(path, decodeLSH) }

// LoadSQ reads a snapshot produced by SQFlat.Save.
func LoadSQ(r io.Reader) (*SQFlat, error) { return loadSnapshot(r, decodeSQ) }

// OpenSQFile opens an SQFlat snapshot file, memory-mapping the container
// so vectors and code columns are zero-copy views.
func OpenSQFile(path string) (*SQFlat, error) { return openSnapshot(path, decodeSQ) }
