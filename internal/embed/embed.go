// Package embed provides the semantic-representation substrate: dense
// vector embeddings for text, tuples, and individual tokens. It stands in
// for the paper's BERT-based tuple-to-vec / text-to-vec encoders.
//
// The embedder is deterministic and corpus-independent: every token maps to
// a fixed pseudo-random Gaussian direction derived by hashing (seed, token),
// and a text embeds as the normalized, frequency-damped sum of its token
// vectors. Semantically related lake items share surface tokens, so related
// items land near each other in the space — which is exactly the property
// the semantic index path needs to exercise the same code shape as
// BERT+Faiss (embed → ANN search → candidates).
package embed

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/detrand"
	"repro/internal/par"
	"repro/internal/textutil"
)

// Vector is a dense embedding.
type Vector []float32

// The similarity kernels below are the innermost loops of every vector
// search, so they are 4-wide unrolled over four independent accumulators
// (breaking the loop-carried add dependency) with the bounds checks
// hoisted via explicit reslicing. Unrolling reassociates the float64
// summation, so results may differ from a naive loop in the last ULPs —
// every ranking in the repo goes through these same kernels, so rankings
// stay internally consistent.

// Dot returns the inner product of a and b. Panics on dimension mismatch.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic("embed: dimension mismatch")
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += float64(aa[0]) * float64(bb[0])
		s1 += float64(aa[1]) * float64(bb[1])
		s2 += float64(aa[2]) * float64(bb[2])
		s3 += float64(aa[3]) * float64(bb[3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		vv := v[i : i+4 : i+4]
		s0 += float64(vv[0]) * float64(vv[0])
		s1 += float64(vv[1]) * float64(vv[1])
		s2 += float64(vv[2]) * float64(vv[2])
		s3 += float64(vv[3]) * float64(vv[3])
	}
	for ; i < len(v); i++ {
		s0 += float64(v[i]) * float64(v[i])
	}
	return math.Sqrt((s0 + s1) + (s2 + s3))
}

// Cosine returns the cosine similarity of a and b (0 when either is zero).
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Normalize scales v to unit norm in place. Zero vectors stay zero.
func Normalize(v Vector) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// Clone returns a copy of v.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Embedder produces embeddings of a fixed dimension. It is safe for
// concurrent use.
//
// Its token table holds the vector of every term of its dictionary, the
// table's row being the term's ID: the dictionary grows with what the
// lake ingests, and so does the table, never with what queries ask. A
// query term the dictionary lacks gets its vector computed for the call.
// The table's rows sit back to back in fixed-size chunks that are never
// reallocated, filled the first time a term's row is read; reading a
// filled row takes no lock. The chunks come from binfmt.OffHeap, owned by
// the Embedder: where the platform maps memory the collector neither scans
// nor counts them, and they are released once the Embedder is unreachable.
// So a row the Embedder hands out (Row, TokenVector, EmbedTokens,
// AddTermVectors) is a view of the table, not a copy: its caller keeps
// the Embedder reachable for as long as it reads the row
// (runtime.KeepAlive where nothing else holds it).
type Embedder struct {
	dim  int
	seed uint64
	dict *textutil.Dict

	mu      sync.Mutex // serializes growing the chunk list and filling rows
	chunks  atomic.Pointer[[]*tokenRows]
	offHeap atomic.Int64 // bytes of the chunks in anonymous mappings
}

// tokenRows is one chunk of the token table: tokenChunk rows of dim
// components, and whether each row is filled yet.
type tokenRows struct {
	vecs   []float32 // from binfmt.OffHeap, owned by the Embedder
	filled [tokenChunk]atomic.Bool
}

// tokenChunk is the number of token vectors one chunk of the table holds.
const tokenChunk = 256

// NewEmbedder returns an embedder of dimension dim seeded by seed, over a
// term dictionary of its own. Dimension must be positive.
func NewEmbedder(dim int, seed uint64) *Embedder {
	if dim <= 0 {
		panic("embed: non-positive dimension")
	}
	return &Embedder{dim: dim, seed: seed, dict: textutil.NewDict()}
}

// Dim returns the embedding dimension.
func (e *Embedder) Dim() int { return e.dim }

// Dict returns the term dictionary whose IDs number the token table: the
// one every index fed from this embedder's bags analyzes with.
func (e *Embedder) Dict() *textutil.Dict { return e.dict }

// Row returns the token vector of the dictionary's term id, the table's
// row id, filling it first if no one has: a view of the table, valid while
// e is reachable. Callers must not mutate it.
func (e *Embedder) Row(id uint32) Vector {
	if cs := e.chunks.Load(); cs != nil && int(id/tokenChunk) < len(*cs) {
		if c := (*cs)[id/tokenChunk]; c.filled[id%tokenChunk].Load() {
			return e.rowOf(c, id)
		}
	}
	v := e.newTokenVector(e.dict.Term(id)) // computed outside the lock
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.chunks.Load()
	for cs == nil || int(id/tokenChunk) >= len(*cs) {
		var grown []*tokenRows
		if cs != nil {
			grown = append(grown, *cs...)
		}
		grown = append(grown, &tokenRows{vecs: e.newChunk()})
		cs = &grown
		e.chunks.Store(cs)
	}
	c := (*cs)[id/tokenChunk]
	row := e.rowOf(c, id)
	if !c.filled[id%tokenChunk].Load() {
		copy(row, v)
		c.filled[id%tokenChunk].Store(true)
	}
	return row
}

// newChunk returns the zeroed vectors of a new chunk of the table.
func (e *Embedder) newChunk() []float32 {
	buf, mapped := binfmt.OffHeap(e, tokenChunk*e.dim*4)
	if mapped {
		e.offHeap.Add(int64(len(buf)))
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(buf))), tokenChunk*e.dim)
}

func (e *Embedder) rowOf(c *tokenRows, id uint32) Vector {
	off := int(id%tokenChunk) * e.dim
	return c.vecs[off : off+e.dim : off+e.dim]
}

// newTokenVector computes token's unit-norm vector: a fixed pseudo-random
// Gaussian direction derived from (seed, token).
func (e *Embedder) newTokenVector(token string) Vector {
	rng := detrand.New(e.seed, "token", token)
	v := make(Vector, e.dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	Normalize(v)
	return v
}

// TokenVector returns the unit-norm embedding of a single (stemmed) token.
// The same token always maps to the same vector: its table row when the
// dictionary holds it (a view, as Row's), otherwise one computed for this
// call. Callers must not mutate the returned vector.
func (e *Embedder) TokenVector(token string) Vector {
	if id, ok := e.dict.Lookup(token); ok {
		return e.Row(id)
	}
	return e.newTokenVector(token)
}

// TableBytes returns the bytes of the token table's vector chunks.
func (e *Embedder) TableBytes() int64 {
	cs := e.chunks.Load()
	if cs == nil {
		return 0
	}
	return int64(len(*cs)) * tokenChunk * int64(e.dim) * 4
}

// OffHeapBytes returns the part of TableBytes outside the Go heap: all of
// it unless binfmt.OffHeap fell back to heap buffers.
func (e *Embedder) OffHeapBytes() int64 { return e.offHeap.Load() }

// AddTermVectors adds each of terms to the dictionary and returns its
// token vector, the rows filled on up to GOMAXPROCS goroutines (par.For):
// what a reopened index's terms take. The vectors are views, as Row's.
func (e *Embedder) AddTermVectors(terms []string) []Vector {
	out := make([]Vector, len(terms))
	par.For(len(terms), runtime.GOMAXPROCS(0), func(i int) { out[i] = e.Row(e.dict.Add(terms[i])) })
	return out
}

// EmbedTokens returns one vector per analyzed token of s, in order, for
// late-interaction (ColBERT-style) scoring: views, as TokenVector's.
// Returns nil for token-free text. It adds nothing to the dictionary.
func (e *Embedder) EmbedTokens(s string) []Vector {
	terms := e.dict.AppendTerms(nil, s)
	if len(terms) == 0 {
		return nil
	}
	out := make([]Vector, len(terms))
	for i, t := range terms {
		out[i] = e.TokenVector(t)
	}
	return out
}

// EmbedText returns the document-level embedding of s: the sum of token
// vectors with sub-linear (sqrt) frequency damping, normalized to unit
// length. Damping prevents one repeated token from dominating, mirroring
// TF-saturation in learned encoders. It adds nothing to the dictionary.
func (e *Embedder) EmbedText(s string) Vector {
	terms := e.dict.AppendTerms(nil, s)
	slices.Sort(terms)
	out := make(Vector, e.dim)
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		AddTerm(out, e.TokenVector(terms[i]), int32(j-i))
		i = j
	}
	runtime.KeepAlive(e) // until the last row is read
	Normalize(out)
	return out
}

// AddBag adds b's terms into acc in the bag's ascending term order, the
// sum EmbedText normalizes: float addition is not associative, so one
// fixed order keeps every embedding of the same text bitwise identical.
func (e *Embedder) AddBag(acc Vector, b textutil.IDBag) {
	for _, t := range b.Terms {
		AddTerm(acc, e.Row(t.ID), t.Freq)
	}
	runtime.KeepAlive(e) // until the last row is read
}

// AddTerm adds a term's token vector tv, occurring freq times, into the
// sum acc: the step AddBag takes per distinct term, in ascending term
// order, before it normalizes. A vector rebuilt from stored term
// frequencies through this same step rounds exactly as the embedding did;
// the explicit conversion keeps the compiler from fusing the multiply into
// the add on some platforms and not others.
func AddTerm(acc, tv Vector, freq int32) {
	w := float32(math.Sqrt(float64(freq)))
	tv = tv[:len(acc)]
	for i := range acc {
		acc[i] += float32(w * tv[i])
	}
}
