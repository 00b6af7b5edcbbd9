package rerank

import (
	"slices"

	"repro/internal/textutil"
)

// tokenSet is the distinct tokens of one query string, as
// textutil.Tokenize splits it, taken once per Rerank call, with the
// scratch to compare a candidate string's tokens against them without
// allocating.
type tokenSet struct {
	toks []string
	hit  []bool
	// seen holds the candidate's distinct tokens so far, back to back,
	// and ends where each of them ends.
	seen []byte
	ends []int
}

func newTokenSet(s string) *tokenSet {
	ts := &tokenSet{}
	for _, t := range textutil.Tokenize(s) {
		if !slices.Contains(ts.toks, t) {
			ts.toks = append(ts.toks, t)
		}
	}
	ts.hit = make([]bool, len(ts.toks))
	return ts
}

// index returns the position of tok among the query's tokens, or -1.
func (ts *tokenSet) index(tok []byte) int {
	for k, t := range ts.toks {
		if t == string(tok) {
			return k
		}
	}
	return -1
}

// jaccard is textutil.Jaccard of the query's tokens and s's.
func (ts *tokenSet) jaccard(s string) float64 {
	ts.seen, ts.ends = ts.seen[:0], ts.ends[:0]
	inter := 0
	var buf [64]byte
	for i := 0; i < len(s); {
		var tok []byte
		if tok, i = textutil.ScanToken(s, i, buf[:0]); len(tok) == 0 || ts.seenBefore(tok) {
			continue
		}
		ts.seen = append(ts.seen, tok...)
		ts.ends = append(ts.ends, len(ts.seen))
		if ts.index(tok) >= 0 {
			inter++
		}
	}
	if len(ts.toks) == 0 && len(ts.ends) == 0 {
		return 1
	}
	return float64(inter) / float64(len(ts.toks)+len(ts.ends)-inter)
}

// seenBefore reports whether the candidate's tokens so far include tok.
func (ts *tokenSet) seenBefore(tok []byte) bool {
	start := 0
	for _, end := range ts.ends {
		if string(ts.seen[start:end]) == string(tok) {
			return true
		}
		start = end
	}
	return false
}

// containment is the share of the query's distinct tokens that the tokens
// of pieces include: |A∩B| / |A| over the tokens of the query (A) and of
// the pieces joined by spaces (B), 0 for a query without tokens.
func (ts *tokenSet) containment(pieces []string) float64 {
	if len(ts.toks) == 0 {
		return 0
	}
	clear(ts.hit)
	hits := 0
	var buf [64]byte
	for _, p := range pieces {
		for i := 0; i < len(p); {
			var tok []byte
			tok, i = textutil.ScanToken(p, i, buf[:0])
			if k := ts.index(tok); k >= 0 && !ts.hit[k] {
				ts.hit[k] = true
				hits++
			}
		}
	}
	return float64(hits) / float64(len(ts.toks))
}

// termSet is the distinct analyzed terms of a query's text, taken once
// per Rerank call, and which of them the candidate scanned since the last
// reset has. A candidate's tokens stream through the dictionary's
// raw-token table: a token the dictionary held when the set was taken is
// matched by ID, any other by its term. A token whose first byte starts
// no query term is skipped unread, since a term starts with its token's
// first byte.
type termSet struct {
	dict  *textutil.Dict
	terms []string
	// ids[k] is terms[k]'s ID, or noTerm when the dictionary did not hold
	// it; mask has bit id%64 set for each of them.
	ids  []uint32
	mask uint64
	// held is the dictionary's length when the set was taken: an ID below
	// it that ids lacks is no query term's, since the term would have had
	// it then.
	held uint32
	// firsts has bit b set for each first byte b of a term.
	firsts [4]uint64
	hit    []bool
	hits   int
}

// noTerm stands in ids for a query term the dictionary did not hold.
const noTerm = ^uint32(0)

func newTermSet(dict *textutil.Dict, text string) *termSet {
	ts := &termSet{dict: dict, held: uint32(dict.Len())}
	for _, term := range dict.AppendTerms(nil, text) {
		if !slices.Contains(ts.terms, term) {
			ts.terms = append(ts.terms, term)
		}
	}
	ts.ids = make([]uint32, len(ts.terms))
	for k, t := range ts.terms {
		id, ok := dict.Lookup(t)
		if !ok {
			id = noTerm
		}
		ts.ids[k] = id
		ts.mask |= 1 << (id % 64)
		ts.firsts[t[0]/64] |= 1 << (t[0] % 64)
	}
	ts.hit = make([]bool, len(ts.terms))
	return ts
}

// reset forgets the previous candidate's matches.
func (ts *termSet) reset() {
	clear(ts.hit)
	ts.hits = 0
}

// scan matches the terms of s against the query's.
func (ts *termSet) scan(s string) {
	var buf [64]byte
	for i := 0; i < len(s) && ts.hits < len(ts.terms); {
		var tok []byte
		if tok, i = textutil.ScanToken(s, i, buf[:0]); len(tok) == 0 || ts.firsts[tok[0]/64]&(1<<(tok[0]%64)) == 0 {
			continue
		}
		id, term, held := ts.dict.TokenTerm(tok)
		k := -1
		switch {
		case term == "":
		case !held || id >= ts.held:
			k = slices.Index(ts.terms, term)
		case ts.mask&(1<<(id%64)) != 0:
			k = slices.Index(ts.ids, id)
		}
		if k >= 0 && !ts.hit[k] {
			ts.hit[k] = true
			ts.hits++
		}
	}
}

// share is the fraction of the query's distinct terms the candidate
// scanned since the last reset has, 0 for a query without terms.
func (ts *termSet) share() float64 {
	if len(ts.terms) == 0 {
		return 0
	}
	return float64(ts.hits) / float64(len(ts.terms))
}
