package textutil

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Dict is a term dictionary: it numbers the terms the analysis chain
// yields densely, in the order they are first added, and never forgets
// one. It also remembers raw tokens: a lowercased token maps to its term's
// ID, or to a sentinel when it is a stopword, so analyzing a token met
// before is one table probe — no stopword test, no stemming, no allocation
// — and Porter's algorithm runs once per new token.
//
// Readers take no lock: both tables are probed through atomic slots and
// the ID → term column is read through chunks that never move. Writers
// serialize on one mutex. The zero value is an empty dictionary; a Dict is
// safe for concurrent use.
type Dict struct {
	mu    sync.Mutex
	raw   idTable // raw lowercased token -> term ID, or stopword
	ids   idTable // term -> term ID
	terms atomic.Pointer[[]*termChunk]
	n     atomic.Uint32
}

// termChunk is dictChunk consecutive IDs' terms, and each term's first 8
// bytes as a big-endian number, zero-padded: two terms whose keys differ
// order as their keys do, so most comparisons Bag sorts by read no term.
type termChunk struct {
	terms [dictChunk]string
	keys  [dictChunk]uint64
}

// dictChunk is the number of terms one chunk of the ID → term column
// holds.
const dictChunk = 1024

// stopword is the ID the raw-token table gives a stopword.
const stopword = ^uint32(0)

// NewDict returns an empty dictionary.
func NewDict() *Dict { return new(Dict) }

// Len returns the number of terms.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Term returns the term numbered id, which must be an ID the dictionary
// handed out.
func (d *Dict) Term(id uint32) string { return (*d.terms.Load())[id/dictChunk].terms[id%dictChunk] }

// Lookup returns the ID of term, if the dictionary holds it. It never
// adds: a term met only in a query leaves the dictionary as it was.
func (d *Dict) Lookup(term string) (uint32, bool) { return d.ids.get(term) }

// Add returns the ID of term, numbering it first if it is new.
func (d *Dict) Add(term string) uint32 {
	if id, ok := d.ids.get(term); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids.get(term); ok {
		return id
	}
	return d.addLocked(strings.Clone(term))
}

// addLocked numbers the new term, which the dictionary keeps as is.
// Caller holds mu.
func (d *Dict) addLocked(term string) uint32 {
	id := d.n.Load()
	chunks := d.terms.Load()
	if id%dictChunk == 0 {
		var grown []*termChunk
		if chunks != nil {
			grown = append(grown, *chunks...)
		}
		grown = append(grown, new(termChunk))
		chunks = &grown
		d.terms.Store(chunks)
	}
	c := (*chunks)[id/dictChunk]
	c.terms[id%dictChunk] = term
	var key [8]byte
	copy(key[:], term)
	c.keys[id%dictChunk] = binary.BigEndian.Uint64(key[:])
	d.ids.put(term, id)
	d.n.Store(id + 1)
	return id
}

// token returns the term ID of the raw lowercased token tok, or stopword,
// adding the token (and its term) if it is new.
func (d *Dict) token(tok []byte) uint32 {
	if id, ok := d.raw.get(unsafe.String(unsafe.SliceData(tok), len(tok))); ok {
		return id
	}
	return d.addToken(string(tok))
}

// addToken is token's path for a token not yet published. The token is
// classified before the lock is taken: two writers racing on one new token
// may both stem it, and one of them adds it.
func (d *Dict) addToken(tok string) uint32 {
	term, stop := classify(tok)
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.raw.get(tok); ok {
		return id
	}
	id := stopword
	if !stop {
		var ok bool
		if id, ok = d.ids.get(term); !ok {
			id = d.addLocked(term)
		}
	}
	d.raw.put(tok, id)
	return id
}

// AppendIDs appends the term ID of every token of s that is not a
// stopword to dst, in text order, and returns the extended slice: what
// TokenizeFiltered yields, as IDs, adding new tokens to the dictionary.
// Analyzing tokens already in it allocates nothing beyond dst's growth.
func (d *Dict) AppendIDs(dst []uint32, s string) []uint32 {
	var buf [tokenBuf]byte
	for i := 0; i < len(s); {
		var tok []byte
		if tok, i = scanToken(s, i, buf[:0]); len(tok) > 0 {
			if id := d.token(tok); id != stopword {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// AppendTerms appends the term of every token of s that is not a
// stopword to dst, in text order, and returns the extended slice: the
// terms AppendIDs numbers, without adding anything. A token the
// dictionary holds costs one probe and yields the dictionary's own term
// string; any other is classified for this call only. Queries and rerank
// candidates analyze through it, so they leave the dictionary, and the
// token table it numbers, as they found it. Analyzing tokens already in
// the dictionary allocates nothing beyond dst's growth; a dst without
// capacity is allocated once, sized for s.
func (d *Dict) AppendTerms(dst []string, s string) []string {
	if cap(dst) == 0 {
		dst = make([]string, 0, len(s)/5+1)
	}
	var buf [tokenBuf]byte
	for i := 0; i < len(s); {
		var tok []byte
		if tok, i = scanToken(s, i, buf[:0]); len(tok) == 0 {
			continue
		}
		if id, ok := d.raw.get(unsafe.String(unsafe.SliceData(tok), len(tok))); ok {
			if id != stopword {
				dst = append(dst, d.Term(id))
			}
		} else if term, stop := classify(string(tok)); !stop {
			dst = append(dst, term)
		}
	}
	return dst
}

// classify returns the term the raw lowercased token tok stands for, or
// stop if it is a stopword: the analysis chain's one decision about a
// token, made once for each token a dictionary adds and on every call for
// a token AppendTerms finds missing.
func classify(tok string) (term string, stop bool) {
	if isStopword(tok) {
		return "", true
	}
	if stemmable(tok) {
		return porter(tok), false
	}
	return tok, false
}

// IDBag is one analyzed text as both index families read it, without a
// pointer per term: its distinct terms' IDs in ascending order of the
// terms' bytes (the order Bag holds its terms in), each with its count,
// and the number of tokens.
type IDBag struct {
	Terms []TermFreq
	Len   int
}

// TermFreq is one distinct term of an IDBag and its count.
type TermFreq struct {
	ID   uint32
	Freq int32
}

// Analyze returns the bag of s's terms, adding new ones to the dictionary.
func (d *Dict) Analyze(s string) IDBag { return d.Bag(d.AppendIDs(nil, s)) }

// Bag folds ids — term IDs AppendIDs returned, for one text or for the
// pieces it is made of — into their bag. It reorders ids in place.
func (d *Dict) Bag(ids []uint32) IDBag {
	slices.Sort(ids)
	distinct := 0
	for i := range ids {
		if i == 0 || ids[i] != ids[i-1] {
			distinct++
		}
	}
	b := IDBag{Terms: make([]TermFreq, 0, distinct), Len: len(ids)}
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			b.Terms[len(b.Terms)-1].Freq++
			continue
		}
		b.Terms = append(b.Terms, TermFreq{ID: id, Freq: 1})
	}
	if len(b.Terms) > 1 {
		chunks := *d.terms.Load()
		slices.SortFunc(b.Terms, func(x, y TermFreq) int {
			cx, cy := chunks[x.ID/dictChunk], chunks[y.ID/dictChunk]
			if kx, ky := cx.keys[x.ID%dictChunk], cy.keys[y.ID%dictChunk]; kx != ky {
				return cmp.Compare(kx, ky)
			}
			return strings.Compare(cx.terms[x.ID%dictChunk], cy.terms[y.ID%dictChunk])
		})
	}
	return b
}

// idTable maps strings to IDs for readers that take no lock: open
// addressing with linear probing over atomic slots, written only under the
// dictionary's mutex, and replaced by a table twice its size — never
// resized in place — once half full. A reader probing a table just
// replaced misses only the entries added after it loaded the table, as if
// it had probed first.
type idTable struct {
	slots atomic.Pointer[[]atomic.Pointer[idEntry]]
	n     int // entries; under the dictionary's mutex
}

type idEntry struct {
	key string
	id  uint32
}

// idTableMin is the slot count of a table's first allocation.
const idTableMin = 1024

var idSeed = maphash.MakeSeed()

func (t *idTable) get(key string) (uint32, bool) {
	p := t.slots.Load()
	if p == nil {
		return 0, false
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	for i := maphash.String(idSeed, key) & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.key == key {
			return e.id, true
		}
	}
}

// put adds key, which the table does not hold. Caller holds the
// dictionary's mutex.
func (t *idTable) put(key string, id uint32) {
	e := &idEntry{key: key, id: id}
	t.n++
	p := t.slots.Load()
	if p != nil && 2*t.n <= len(*p) {
		insert(*p, e)
		return
	}
	size := idTableMin
	if p != nil {
		size = 2 * len(*p)
	}
	grown := make([]atomic.Pointer[idEntry], size)
	if p != nil {
		for i := range *p {
			if old := (*p)[i].Load(); old != nil {
				insert(grown, old)
			}
		}
	}
	insert(grown, e)
	t.slots.Store(&grown)
}

func insert(slots []atomic.Pointer[idEntry], e *idEntry) {
	mask := uint64(len(slots) - 1)
	for i := maphash.String(idSeed, e.key) & mask; ; i = (i + 1) & mask {
		if slots[i].Load() == nil {
			slots[i].Store(e)
			return
		}
	}
}
