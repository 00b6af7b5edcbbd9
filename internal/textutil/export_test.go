package textutil

// Porter is the stemming algorithm without the last-byte shortcut the
// analysis chain takes: the reference the chain is tested against.
func Porter(word string) string {
	if len(word) <= 2 {
		return word
	}
	return porter(word)
}

// RawLen returns the number of raw tokens the dictionary holds.
func (d *Dict) RawLen() int { return d.raw.n }

// HasRaw reports whether the dictionary holds the raw lowercased token tok.
func (d *Dict) HasRaw(tok string) bool {
	_, ok := d.raw.get(tok)
	return ok
}
