package binfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"unsafe"
)

// A front-coded string column holds strings in strictly ascending byte
// order, in blocks of frontBlock: each block's first string whole, every
// later one as the length of the prefix it shares with the string before
// it and the rest. Sorted IDs that mostly differ in their last bytes
// (tuple:tbl-000000#0, #1, ...) cost a few bytes each. Section payload,
// integers in native byte order:
//
//	u32               count
//	u32[blocks]       byte offset of each block in the blob
//	blob              per block: uvarint length and bytes of its first
//	                  string, then per later string a uvarint shared-prefix
//	                  length, a uvarint suffix length and the suffix bytes
//
// blocks is count/frontBlock rounded up. A lookup binary-searches the block
// heads and decodes at most frontBlock-1 strings after one.
const frontBlock = 16

// FrontCoder encodes a front-coded string column. Strings must be added in
// strictly ascending order; the reader checks that, so a seal that broke it
// fails when its container is opened. The zero value is an empty column.
type FrontCoder struct {
	n    int
	offs []uint32
	blob []byte
	prev []byte
}

// Add appends s to the column.
func (e *FrontCoder) Add(s string) {
	shared := 0
	if e.n%frontBlock == 0 {
		e.offs = append(e.offs, uint32(len(e.blob)))
		e.blob = binary.AppendUvarint(e.blob, uint64(len(s)))
	} else {
		prev := e.prev[:min(len(e.prev), len(s))]
		for shared < len(prev) && prev[shared] == s[shared] {
			shared++
		}
		e.blob = binary.AppendUvarint(e.blob, uint64(shared))
		e.blob = binary.AppendUvarint(e.blob, uint64(len(s)-shared))
	}
	e.blob = append(e.blob, s[shared:]...)
	e.prev = append(e.prev[:shared], s[shared:]...)
	e.n++
}

// FrontCoded adds the column e encoded as a section.
func (w *Writer) FrontCoded(name string, e *FrontCoder) {
	buf := make([]byte, 4+4*len(e.offs)+len(e.blob))
	ne := binary.NativeEndian
	ne.PutUint32(buf, uint32(e.n))
	for i, off := range e.offs {
		ne.PutUint32(buf[4+4*i:], off)
	}
	copy(buf[4+4*len(e.offs):], e.blob)
	w.Section(name, buf)
}

// FrontCodedCol is a view of a front-coded string column. Its strings are
// decoded on demand; the column is never materialized.
type FrontCodedCol struct {
	n    int
	offs []uint32 // byte offset of each block in blob
	blob []byte
}

// FrontCoded returns a validated view of a front-coded column. Every string
// is decoded once: block offsets must each point where the block before
// ends, every length fit the bytes left and every shared prefix the string
// before, the blocks fill the blob exactly, and the strings ascend strictly
// (so they are also distinct). Nothing is sized by a declared count or
// length.
func (r *Reader) FrontCoded(name string) (FrontCodedCol, error) {
	b, err := r.Bytes(name)
	if err != nil {
		return FrontCodedCol{}, err
	}
	if len(b) < 4 {
		return FrontCodedCol{}, fmt.Errorf("binfmt: front-coded column %q too short", name)
	}
	n := uint64(binary.NativeEndian.Uint32(b))
	blocks := (n + frontBlock - 1) / frontBlock
	if 4+4*blocks > uint64(len(b)) {
		return FrontCodedCol{}, fmt.Errorf("binfmt: front-coded column %q truncated (count %d, %d bytes)", name, n, len(b))
	}
	c := FrontCodedCol{n: int(n), blob: b[4+4*blocks:]}
	if blocks > 0 {
		c.offs = unsafe.Slice((*uint32)(unsafe.Pointer(&b[4])), blocks)
	}
	bad := func(i int, format string, args ...any) (FrontCodedCol, error) {
		return FrontCodedCol{}, fmt.Errorf("binfmt: front-coded column %q, string %d: %s", name, i, fmt.Sprintf(format, args...))
	}
	var cur []byte // the string before the one being decoded
	pos := 0
	for i := 0; i < c.n; i++ {
		if i%frontBlock == 0 {
			if off := c.offs[i/frontBlock]; int64(off) != int64(pos) {
				return bad(i, "block offset %d, the block before ends at %d", off, pos)
			}
			l, k := binary.Uvarint(c.blob[pos:])
			if k <= 0 || l > uint64(len(c.blob)-pos-k) {
				return bad(i, "bad length")
			}
			pos += k
			head := c.blob[pos : pos+int(l)]
			if i > 0 && bytes.Compare(head, cur) <= 0 {
				return bad(i, "not above the string before it")
			}
			cur = append(cur[:0], head...)
			pos += int(l)
			continue
		}
		shared, k := binary.Uvarint(c.blob[pos:])
		if k <= 0 || shared > uint64(len(cur)) {
			return bad(i, "bad shared prefix length (the string before has %d bytes)", len(cur))
		}
		pos += k
		l, k := binary.Uvarint(c.blob[pos:])
		if k <= 0 || l > uint64(len(c.blob)-pos-k) {
			return bad(i, "bad suffix length")
		}
		pos += k
		suffix := c.blob[pos : pos+int(l)]
		if bytes.Compare(suffix, cur[shared:]) <= 0 {
			return bad(i, "not above the string before it")
		}
		cur = append(cur[:shared], suffix...)
		pos += int(l)
	}
	if pos != len(c.blob) {
		return FrontCodedCol{}, fmt.Errorf("binfmt: front-coded column %q has %d bytes after its last string", name, len(c.blob)-pos)
	}
	return c, nil
}

// Len returns the number of strings in the column.
func (c FrontCodedCol) Len() int { return c.n }

// block returns block b's first string and the entries after it, as views
// of the column.
func (c FrontCodedCol) block(b int) (head, rest []byte) {
	end := len(c.blob)
	if b+1 < len(c.offs) {
		end = int(c.offs[b+1])
	}
	rest = c.blob[c.offs[b]:end]
	l, k := binary.Uvarint(rest)
	return rest[k : k+int(l)], rest[k+int(l):]
}

// next decodes the entry at the front of rest onto dst, whose bytes from
// base on are the string before it, and returns dst and what follows the
// entry.
func next(dst []byte, base int, rest []byte) ([]byte, []byte) {
	shared, k := binary.Uvarint(rest)
	rest = rest[k:]
	l, k := binary.Uvarint(rest)
	rest = rest[k:]
	return append(dst[:base+int(shared)], rest[:l]...), rest[l:]
}

// AppendAt appends string i to dst.
func (c FrontCodedCol) AppendAt(dst []byte, i int) []byte {
	head, rest := c.block(i / frontBlock)
	base := len(dst)
	dst = append(dst, head...)
	for range i % frontBlock {
		dst, rest = next(dst, base, rest)
	}
	return dst
}

// All yields every string with its index, in order. A yielded slice is
// valid only until the next one.
func (c FrontCodedCol) All() iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		var cur []byte
		for b := range c.offs {
			head, rest := c.block(b)
			cur = append(cur[:0], head...)
			for i := b * frontBlock; ; i++ {
				if !yield(i, cur) {
					return
				}
				if len(rest) == 0 {
					break
				}
				cur, rest = next(cur, 0, rest)
			}
		}
	}
}

// Find returns the index of s, or -1. It allocates nothing for strings of
// up to 64 bytes.
func (c FrontCodedCol) Find(s string) int {
	// bytes.Compare keeps the decode buffer below on the stack, where
	// strings.Compare would move it to the heap.
	key := castToBytes(unsafe.Pointer(unsafe.StringData(s)), len(s))
	// The last block whose first string is at most s.
	lo, hi := 0, len(c.offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if head, _ := c.block(mid); bytes.Compare(head, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	head, rest := c.block(lo - 1)
	var buf [64]byte
	cur := append(buf[:0], head...)
	for i := (lo - 1) * frontBlock; ; i++ {
		switch cmp := bytes.Compare(cur, key); {
		case cmp == 0:
			return i
		case cmp > 0 || len(rest) == 0:
			return -1
		}
		cur, rest = next(cur, 0, rest)
	}
}

// MergeAscending visits the strings of cols and of extra in one ascending
// order and calls emit with each one's input (a column's index, or
// len(cols) for extra), its row there and the string, which is valid only
// for the call. Each column and extra must ascend; a column's rows that
// dead (one bitmap per column) marks are skipped. A string present in two
// inputs is visited once from each.
func MergeAscending(cols []FrontCodedCol, dead [][]bool, extra []string, emit func(src, row int, s string)) {
	next := make([]int, len(cols)+1) // each input's next row
	heads := make([][]byte, len(cols))
	// advance moves column i to its next live row and decodes it.
	advance := func(i int) {
		for next[i] < cols[i].Len() && dead[i][next[i]] {
			next[i]++
		}
		if next[i] < cols[i].Len() {
			heads[i] = cols[i].AppendAt(heads[i][:0], next[i])
		}
	}
	head := func(i int) (string, bool) {
		if i == len(cols) {
			if next[i] < len(extra) {
				return extra[next[i]], true
			}
			return "", false
		}
		if next[i] < cols[i].Len() {
			return unsafe.String(unsafe.SliceData(heads[i]), len(heads[i])), true
		}
		return "", false
	}
	for i := range cols {
		advance(i)
	}
	for {
		best, min := -1, ""
		for i := range next {
			if s, ok := head(i); ok && (best < 0 || s < min) {
				best, min = i, s
			}
		}
		if best < 0 {
			return
		}
		emit(best, next[best], min)
		next[best]++
		if best < len(cols) {
			advance(best)
		}
	}
}
