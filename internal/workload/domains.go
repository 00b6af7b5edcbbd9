package workload

import (
	"fmt"
	"strconv"

	"repro/internal/detrand"
	"repro/internal/table"
)

// entityReuse is the probability a new table row reuses an existing person
// entity, creating cross-table ambiguity.
const entityReuse = 0.4

// entityPool hands out person names. With probability entityReuse it
// returns a previously issued name instead of a fresh one, creating the
// cross-table entity overlap that makes retrieval genuinely confusable (the
// same golfer appears in several tournaments, as in the paper's Figure 4
// where Tommy Bolt and Ben Hogan appear in both the 1954 and 1959 U.S.
// Open tables).
type entityPool struct {
	r      *detrand.Rand
	issued []string
	seen   map[string]struct{}
}

func newEntityPool(r *detrand.Rand) *entityPool {
	return &entityPool{r: r, seen: make(map[string]struct{})}
}

// next returns an entity name, possibly reused.
func (p *entityPool) next() string {
	if len(p.issued) > 0 && p.r.Bool(entityReuse) {
		return p.issued[p.r.Intn(len(p.issued))]
	}
	for tries := 0; tries < 100; tries++ {
		name := firstNames[p.r.Intn(len(firstNames))] + " " + lastNames[p.r.Intn(len(lastNames))]
		if _, dup := p.seen[name]; dup {
			continue
		}
		p.seen[name] = struct{}{}
		p.issued = append(p.issued, name)
		return name
	}
	// Name space exhausted at this size; fall back to reuse.
	return p.issued[p.r.Intn(len(p.issued))]
}

// nextFresh returns a never-before-issued name (for key columns that must be
// distinct within a table the caller still dedups locally).
func (p *entityPool) nextFresh() string {
	for tries := 0; tries < 1000; tries++ {
		name := firstNames[p.r.Intn(len(firstNames))] + " " + lastNames[p.r.Intn(len(lastNames))]
		if _, dup := p.seen[name]; dup {
			continue
		}
		p.seen[name] = struct{}{}
		p.issued = append(p.issued, name)
		return name
	}
	return fmt.Sprintf("person %d", p.r.Intn(1_000_000))
}

// domainGen generates one table of its domain. keyCol is the column whose
// values identify rows (the entity column); attrCols are the non-key columns
// eligible for the tuple-completion and claim tasks.
type domainGen struct {
	name     string
	generate func(r *detrand.Rand, id string, pool *entityPool) *table.Table
	keyCol   int
	attrCols []int
	// personCols are the columns containing person entities that get
	// Wikipedia-style text pages in the lake (the WikiTable-TURL entity
	// links of the paper).
	personCols []int
}

// distinctEntities draws n distinct entity names from the pool.
func distinctEntities(r *detrand.Rand, pool *entityPool, n int) []string {
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		name := pool.next()
		if _, dup := seen[name]; dup {
			name = pool.nextFresh()
			if _, dup2 := seen[name]; dup2 {
				continue
			}
		}
		seen[name] = struct{}{}
		out = append(out, name)
	}
	return out
}

// genGolf emits a "{year} {city} open (golf)" leaderboard like Figure 4.
func genGolf(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	year := r.IntRange(1930, 2015)
	city := cities[r.Intn(len(cities))]
	caption := fmt.Sprintf("%d %s open (golf)", year, city)
	t := table.New(id, caption, []string{"place", "player", "country", "score", "to par", "money"})
	n := r.IntRange(6, 12)
	players := distinctEntities(r, pool, n)
	par := 280
	score := par + r.IntRange(-8, 4)
	prize := 100 * r.IntRange(40, 80)
	for i := 0; i < n; i++ {
		t.MustAppendRow(
			"t"+strconv.Itoa(i+1),
			players[i],
			countries[r.Intn(len(countries))],
			strconv.Itoa(score),
			fmt.Sprintf("%+d", score-par),
			strconv.Itoa(prize),
		)
		score += r.IntRange(0, 2)
		prize = prize * r.IntRange(55, 85) / 100
		if prize < 100 {
			prize = 100
		}
	}
	return t
}

// genElection emits a congressional-district table like Figure 1(a).
func genElection(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	state := usStates[r.Intn(len(usStates))]
	year := 1900 + 2*r.Intn(60)
	caption := fmt.Sprintf("%s congressional districts %d", state, year)
	t := table.New(id, caption, []string{"district", "incumbent", "party", "first elected"})
	n := r.IntRange(4, 10)
	incumbents := distinctEntities(r, pool, n)
	for i := 0; i < n; i++ {
		t.MustAppendRow(
			state+"'s "+ordinals[i]+" congressional district",
			incumbents[i],
			parties[r.Intn(len(parties))],
			strconv.Itoa(r.IntRange(1978, 2012)),
		)
	}
	return t
}

// genFilmography emits a "{person}'s filmography" like Figure 1(b).
func genFilmography(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	person := pool.next()
	caption := person + "'s filmography"
	t := table.New(id, caption, []string{"year", "title", "role"})
	n := r.IntRange(4, 9)
	year := r.IntRange(1985, 2012)
	used := make(map[int]struct{})
	for i := 0; i < n; i++ {
		ti := r.Intn(len(filmTitles))
		for {
			if _, dup := used[ti]; !dup {
				break
			}
			ti = (ti + 1) % len(filmTitles)
		}
		used[ti] = struct{}{}
		t.MustAppendRow(
			strconv.Itoa(year),
			filmTitles[ti],
			filmRoles[r.Intn(len(filmRoles))],
		)
		year += r.IntRange(0, 2)
	}
	return t
}

// genSeason emits a team season schedule table.
func genSeason(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	year := r.IntRange(1960, 2015)
	team := cities[r.Intn(len(cities))] + " " + teamNames[r.Intn(len(teamNames))]
	caption := fmt.Sprintf("%d %s season", year, team)
	t := table.New(id, caption, []string{"week", "opponent", "result", "attendance"})
	n := r.IntRange(6, 12)
	for i := 0; i < n; i++ {
		opp := cities[r.Intn(len(cities))] + " " + teamNames[r.Intn(len(teamNames))]
		res := fmt.Sprintf("w %d - %d", r.IntRange(14, 45), r.IntRange(0, 13))
		if r.Bool(0.45) {
			res = fmt.Sprintf("l %d - %d", r.IntRange(0, 13), r.IntRange(14, 45))
		}
		t.MustAppendRow(
			strconv.Itoa(i+1),
			opp,
			res,
			strconv.Itoa(100*r.IntRange(80, 700)),
		)
	}
	return t
}

// genMedals emits an olympics-style medal table.
func genMedals(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	year := r.IntRange(1948, 2012)
	city := cities[r.Intn(len(cities))]
	caption := fmt.Sprintf("%d %s games medal table", year, city)
	t := table.New(id, caption, []string{"rank", "nation", "gold", "silver", "bronze", "total"})
	n := r.IntRange(5, 10)
	perm := r.Perm(len(countries))
	gold := r.IntRange(10, 30)
	for i := 0; i < n; i++ {
		g := gold
		s := r.IntRange(0, g+3)
		b := r.IntRange(0, g+4)
		t.MustAppendRow(
			strconv.Itoa(i+1),
			countries[perm[i%len(perm)]],
			strconv.Itoa(g),
			strconv.Itoa(s),
			strconv.Itoa(b),
			strconv.Itoa(g+s+b),
		)
		gold -= r.IntRange(1, 4)
		if gold < 0 {
			gold = 0
		}
	}
	return t
}

// genDiscography emits a "{person} discography" table.
func genDiscography(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	person := pool.next()
	caption := person + " discography"
	t := table.New(id, caption, []string{"year", "album", "label", "peak position"})
	n := r.IntRange(3, 8)
	year := r.IntRange(1970, 2010)
	for i := 0; i < n; i++ {
		album := albumAdjectives[r.Intn(len(albumAdjectives))] + " " + albumNouns[r.Intn(len(albumNouns))]
		t.MustAppendRow(
			strconv.Itoa(year),
			album,
			recordLabels[r.Intn(len(recordLabels))],
			strconv.Itoa(r.IntRange(1, 100)),
		)
		year += r.IntRange(1, 3)
	}
	return t
}

// genCompanies emits a largest-companies table.
func genCompanies(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	state := usStates[r.Intn(len(usStates))]
	year := r.IntRange(1995, 2020)
	caption := fmt.Sprintf("largest companies of %s %d", state, year)
	t := table.New(id, caption, []string{"company", "industry", "revenue", "employees"})
	n := r.IntRange(4, 9)
	seen := make(map[string]struct{})
	for i := 0; i < n; i++ {
		name := cities[r.Intn(len(cities))] + " " + industries[r.Intn(len(industries))] + " group"
		if _, dup := seen[name]; dup {
			name = lastNames[r.Intn(len(lastNames))] + " " + industries[r.Intn(len(industries))] + " corporation"
		}
		seen[name] = struct{}{}
		t.MustAppendRow(
			name,
			industries[r.Intn(len(industries))],
			strconv.Itoa(10*r.IntRange(20, 900)),
			strconv.Itoa(100*r.IntRange(5, 400)),
		)
	}
	return t
}

// genWeather emits a monthly climate table.
func genWeather(r *detrand.Rand, id string, pool *entityPool) *table.Table {
	city := cities[r.Intn(len(cities))]
	state := usStates[r.Intn(len(usStates))]
	caption := "climate of " + city + " " + state
	t := table.New(id, caption, []string{"month", "record high", "record low", "precipitation"})
	for i := 0; i < 12; i++ {
		base := 40 + 30*absInt(6-i)/6
		t.MustAppendRow(
			months[i],
			strconv.Itoa(110-base+r.IntRange(-5, 5)),
			strconv.Itoa(base-45+r.IntRange(-5, 5)),
			strconv.Itoa(r.IntRange(10, 120)),
		)
	}
	return t
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// domains is the registry of table generators. keyCol / attrCols drive task
// generation; peopleKey marks domains whose keys get entity text pages.
var domains = []domainGen{
	{name: "golf", generate: genGolf, keyCol: 1, attrCols: []int{2, 3, 5}, personCols: []int{1}},
	{name: "election", generate: genElection, keyCol: 0, attrCols: []int{1, 2, 3}, personCols: []int{1}},
	{name: "filmography", generate: genFilmography, keyCol: 1, attrCols: []int{0, 2}},
	{name: "season", generate: genSeason, keyCol: 0, attrCols: []int{1, 3}},
	{name: "medals", generate: genMedals, keyCol: 1, attrCols: []int{2, 3, 4, 5}},
	{name: "discography", generate: genDiscography, keyCol: 1, attrCols: []int{0, 2, 3}},
	{name: "companies", generate: genCompanies, keyCol: 0, attrCols: []int{1, 2, 3}},
	{name: "weather", generate: genWeather, keyCol: 0, attrCols: []int{1, 2, 3}},
}
