package workload

import (
	"strconv"
	"strings"

	"repro/internal/detrand"
	"repro/internal/doc"
)

// titleCase capitalizes the first letter of each word for page titles.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if len(w) > 0 {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

// textContextProb is the probability an entity page includes a sentence
// tying the entity to one of its table contexts (attribute + value). Pages
// without context sentences are hard to retrieve from a tuple query, which
// drives the paper's low tuple→text recall.
const textContextProb = 0.88

// textMentions is how many other entities each page name-drops, mimicking
// Wikipedia link structure and adding retrieval confusion.
const textMentions = 8

// genEntityDoc writes a Wikipedia-style page for a person entity. The page
// always states identity facts; with probability textContextProb per
// observation (capped at two) it also includes a sentence tying the entity
// to a table context ("In the 1954 springfield open (golf), ... recorded a
// money of 570."). Pages also name-drop other entities, mimicking link
// structure; both properties together produce the partial tuple→text
// retrievability the paper measures (recall 0.58 at top-3).
// It returns the page and the observations whose context sentences were
// actually included, which the task oracles use as ground truth for what the
// page can support or refute.
func genEntityDoc(r *detrand.Rand, foldedName string, obs []Observation, pool *entityPool) (*doc.Document, []Observation) {
	name := titleCase(foldedName)
	prof := professions[r.Intn(len(professions))]
	nat := countries[r.Intn(len(countries))]
	birthCity := cities[r.Intn(len(cities))]
	birthYear := r.IntRange(1900, 1995)

	var b strings.Builder
	b.WriteString(name)
	b.WriteString(" is a ")
	b.WriteString(nat)
	b.WriteString(" ")
	b.WriteString(prof)
	b.WriteString(", born in ")
	b.WriteString(birthCity)
	b.WriteString(" in ")
	b.WriteString(strconv.Itoa(birthYear))
	b.WriteString(". ")

	// Context sentences: at most two observations, each independently
	// included with textContextProb.
	nCtx := len(obs)
	if nCtx > 2 {
		nCtx = 2
	}
	var included []Observation
	for i := 0; i < nCtx; i++ {
		if !r.Bool(textContextProb) {
			continue
		}
		o := obs[i]
		included = append(included, o)
		b.WriteString("In the ")
		b.WriteString(o.Caption)
		b.WriteString(", ")
		b.WriteString(name)
		b.WriteString(" recorded a ")
		b.WriteString(o.Attr)
		b.WriteString(" of ")
		b.WriteString(o.Value)
		b.WriteString(". ")
	}

	// Generic career filler shared across pages: common vocabulary that
	// keeps pages from being trivially separable.
	b.WriteString("Early in a long career, the ")
	b.WriteString(prof)
	b.WriteString(" trained in ")
	b.WriteString(cities[r.Intn(len(cities))])
	b.WriteString(" and competed across ")
	b.WriteString(countries[r.Intn(len(countries))])
	b.WriteString(" and ")
	b.WriteString(countries[r.Intn(len(countries))])
	b.WriteString(". ")

	// Name-drops of other entities.
	for i := 0; i < textMentions && len(pool.issued) > 0; i++ {
		other := pool.issued[r.Intn(len(pool.issued))]
		switch i % 3 {
		case 0:
			b.WriteString("Commentators have often drawn comparisons with ")
			b.WriteString(other)
			b.WriteString(". ")
		case 1:
			b.WriteString("A notable rivalry with ")
			b.WriteString(other)
			b.WriteString(" drew wide attention. ")
		default:
			b.WriteString(titleCase(other))
			b.WriteString(" later cited this career as an influence. ")
		}
	}

	b.WriteString("Further reading covers the era, its records, and its most memorable seasons.")

	return &doc.Document{
		Title:    name,
		Text:     b.String(),
		EntityID: foldedName,
	}, included
}
