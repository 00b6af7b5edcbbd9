package textutil

// Jaccard returns |A∩B| / |A∪B| over the two token multisets treated as
// sets. Both-empty yields 1.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[string]uint8, len(a)+len(b))
	for _, t := range a {
		set[t] |= 1
	}
	for _, t := range b {
		set[t] |= 2
	}
	inter := 0
	for _, m := range set {
		if m == 3 {
			inter++
		}
	}
	return float64(inter) / float64(len(set))
}
