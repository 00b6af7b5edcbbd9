package textutil

// stopwords is the standard English stopword list used by the analysis
// chain. It matches (a superset of) the Lucene/Elasticsearch default English
// list, since the paper's content-based index is Elasticsearch.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "if": {}, "in": {}, "into": {}, "is": {},
	"it": {}, "no": {}, "not": {}, "of": {}, "on": {}, "or": {}, "such": {},
	"that": {}, "the": {}, "their": {}, "then": {}, "there": {}, "these": {},
	"they": {}, "this": {}, "to": {}, "was": {}, "will": {}, "with": {},
	"he": {}, "she": {}, "his": {}, "her": {}, "its": {}, "from": {},
	"has": {}, "have": {}, "had": {}, "were": {}, "been": {}, "which": {},
	"who": {}, "whom": {}, "what": {}, "when": {}, "where": {}, "also": {},
}

// isStopword reports whether the lowercase token t is an English stopword.
func isStopword(t string) bool {
	_, ok := stopwords[t]
	return ok
}
