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
	"sync"
	"sync/atomic"

	"repro/internal/detrand"
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
// concurrent use: queries introduce new tokens at search time, not only
// during index construction, so the token table is guarded by a
// read/write mutex.
//
// The table holds every token vector the embedder has handed out, back to
// back in fixed-size chunks that are never reallocated, so a returned
// vector stays valid without the lock and the table costs one allocation
// per tokenChunk tokens, not one per token.
type Embedder struct {
	dim  int
	seed uint64

	mu     sync.RWMutex
	ids    map[string]uint32 // token -> row of the table
	chunks [][]float32       // row r is chunks[r/tokenChunk] at (r%tokenChunk)·dim
}

// tokenChunk is the number of token vectors one chunk of the table holds.
const tokenChunk = 256

// NewEmbedder returns an embedder of dimension dim seeded by seed.
// Dimension must be positive.
func NewEmbedder(dim int, seed uint64) *Embedder {
	if dim <= 0 {
		panic("embed: non-positive dimension")
	}
	return &Embedder{dim: dim, seed: seed, ids: make(map[string]uint32)}
}

// Dim returns the embedding dimension.
func (e *Embedder) Dim() int { return e.dim }

// row returns the table's row r. Caller holds the lock.
func (e *Embedder) row(r uint32) Vector {
	off := int(r%tokenChunk) * e.dim
	return e.chunks[r/tokenChunk][off : off+e.dim : off+e.dim]
}

// TokenVector returns the unit-norm embedding of a single (stemmed) token.
// The same token always maps to the same vector. Callers must not mutate
// the returned vector.
func (e *Embedder) TokenVector(token string) Vector {
	e.mu.RLock()
	r, ok := e.ids[token]
	var v Vector
	if ok {
		v = e.row(r)
	}
	e.mu.RUnlock()
	if ok {
		return v
	}
	rng := detrand.New(e.seed, "token", token)
	v = make(Vector, e.dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	Normalize(v)
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok = e.ids[token]; !ok {
		r = uint32(len(e.ids))
		if r%tokenChunk == 0 {
			e.chunks = append(e.chunks, make([]float32, tokenChunk*e.dim))
		}
		e.ids[token] = r
		copy(e.row(r), v)
	}
	return e.row(r)
}

// TableBytes returns the bytes of the token table's vector chunks.
func (e *Embedder) TableBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int64(len(e.chunks)) * tokenChunk * int64(e.dim) * 4
}

// TokenVectors returns the token vector of each of tokens, computed on the
// embedder's worker pool.
func (e *Embedder) TokenVectors(tokens []string) []Vector {
	out := make([]Vector, len(tokens))
	forEach(len(tokens), 0, func(i int) { out[i] = e.TokenVector(tokens[i]) })
	return out
}

// EmbedTokens returns one vector per analyzed token of s, in order, for
// late-interaction (ColBERT-style) scoring. Returns nil for token-free text.
func (e *Embedder) EmbedTokens(s string) []Vector {
	tokens := textutil.TokenizeFiltered(s)
	if len(tokens) == 0 {
		return nil
	}
	out := make([]Vector, len(tokens))
	for i, t := range tokens {
		out[i] = e.TokenVector(t)
	}
	return out
}

// EmbedText returns the document-level embedding of s: the sum of token
// vectors with sub-linear (sqrt) frequency damping, normalized to unit
// length. Damping prevents one repeated token from dominating, mirroring
// TF-saturation in learned encoders.
func (e *Embedder) EmbedText(s string) Vector { return e.embedBag(textutil.Analyze(s)) }

// EmbedTerms is EmbedText over text already analyzed by
// textutil.TokenizeFiltered. terms is not modified or retained.
func (e *Embedder) EmbedTerms(terms []string) Vector { return e.embedBag(textutil.BagOf(terms)) }

func (e *Embedder) embedBag(b textutil.Bag) Vector {
	out := make(Vector, e.dim)
	e.AddBag(out, b)
	Normalize(out)
	return out
}

// AddBag adds b's terms into acc in the bag's ascending term order, the
// sum EmbedText normalizes: float addition is not associative, so one
// fixed order keeps every embedding of the same text bitwise identical.
func (e *Embedder) AddBag(acc Vector, b textutil.Bag) {
	for i, t := range b.Terms {
		AddTerm(acc, e.TokenVector(t), b.Counts[i])
	}
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

// embedSlots bounds the extra goroutines all concurrent EmbedTexts and
// TokenVectors calls may spawn, process-wide, to GOMAXPROCS: nested pools
// degrade to inline work instead of oversubscribing the scheduler.
var embedSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// EmbedTexts embeds a batch of texts on a bounded worker pool (workers <= 0
// means GOMAXPROCS), returning one vector per text in order. The calling
// goroutine always participates, so progress never depends on acquiring a
// worker slot.
func (e *Embedder) EmbedTexts(texts []string, workers int) []Vector {
	out := make([]Vector, len(texts))
	forEach(len(texts), workers, func(i int) { out[i] = e.EmbedText(texts[i]) })
	return out
}

// forEach runs fn(0..n-1) on the caller plus up to workers-1 goroutines
// taken from embedSlots.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Tiny batches run inline: goroutine setup would outweigh the work.
	if workers <= 1 || n < 4 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ { // worker 0 is the caller
		select {
		case embedSlots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-embedSlots }()
				work()
			}()
			continue
		default:
		}
		break // slots exhausted: the caller and acquired workers finish the rest
	}
	work()
	wg.Wait()
}
