package textutil

// Porter is Stem without the memo and without the last-byte shortcut: the
// reference both are tested against.
func Porter(word string) string {
	if len(word) <= 2 {
		return word
	}
	return porter(word)
}

// StemMemoEntries is the memo's cap.
const StemMemoEntries = stemMemoEntries

// StemMemoLen returns how many words the memo holds now.
func StemMemoLen() int {
	n := 0
	for i := range stemMemo {
		sh := &stemMemo[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
