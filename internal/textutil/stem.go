package textutil

// stemmable reports whether Porter's algorithm can change w. Words of
// length <= 2 are left alone, and every rule's suffix ends in an ASCII
// letter, so no step can fire on a word that ends in anything else
// (numbers, non-ASCII): such words are their own stem.
func stemmable(w string) bool {
	return len(w) > 2 && 'a' <= w[len(w)-1] && w[len(w)-1] <= 'z'
}

// porter applies the Porter stemming algorithm (M.F. Porter, 1980) to a
// single lowercase token, following the original five-step definition.
func porter(word string) string {
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if string(w) == word {
		return word // share the caller's string instead of allocating a copy
	}
	return string(w)
}

// isCons reports whether w[i] is a consonant per Porter's definition:
// vowels are a,e,i,o,u, and y is a vowel when preceded by a consonant.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes Porter's m: the number of VC sequences in w[:len(w)].
func measure(w []byte) int {
	n := 0
	i := 0
	// Skip initial consonants.
	for i < len(w) && isCons(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !isCons(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants.
		for i < len(w) && isCons(w, i) {
			i++
		}
		n++
		if i >= len(w) {
			return n
		}
	}
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant (e.g. -tt).
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x, or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the stem before s has measure > m.
// It returns the new word and whether a rule fired (even if the measure
// condition failed, a matching suffix stops further rules in the same step).
func replaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) > m {
		return append(stem[:len(stem):len(stem)], r...), true
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if measure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	fired := false
	if hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		fired = true
	} else if hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleCons(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if w2, ok := replaceSuffix(w, r.from, r.to, 0); ok {
			return w2
		}
	}
	return w
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if w2, ok := replaceSuffix(w, r.from, r.to, 0); ok {
			return w2
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// (m>1 and (*S or *T)) ION ->
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && len(stem) > 0 && (stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "l") {
		return w[:len(w)-1]
	}
	return w
}
