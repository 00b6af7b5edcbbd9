package workload

import (
	"fmt"

	"repro/internal/datalake"
	"repro/internal/detrand"
	"repro/internal/kg"
	"repro/internal/table"
	"repro/internal/textutil"
)

// Source IDs used by the generated lake.
const (
	// SourceTables is the TabFact-like table collection.
	SourceTables = "tabfact-like"
	// SourceTexts is the WikiTable-TURL-like entity-page collection.
	SourceTexts = "wikitable-turl-like"
	// SourceKG is the derived knowledge-graph collection.
	SourceKG = "derived-kg"
)

// Config controls corpus generation. The zero value is not valid; start
// from DefaultConfig or PaperScale.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// NumTables is the number of lake tables (paper: 19,498).
	NumTables int
	// NumTexts caps the number of entity text pages (paper: 13,796).
	NumTexts int
	// KGTableFraction is the fraction of tables whose tuples are also
	// exported as knowledge-graph triples (the cross-modal extension).
	KGTableFraction float64
}

// DefaultConfig returns a laptop-scale corpus (fast tests, same shapes).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumTables:       3000,
		NumTexts:        1500,
		KGTableFraction: 0.1,
	}
}

// PaperScale returns the corpus dimensions reported in Section 4 of the
// paper: 19,498 tables (269,622 tuples in the original) and 13,796 text
// files.
func PaperScale() Config {
	c := DefaultConfig()
	c.NumTables = 19498
	c.NumTexts = 13796
	return c
}

// Corpus is a generated multi-modal lake plus the ground-truth bookkeeping
// task generators need.
type Corpus struct {
	Config Config
	Lake   *datalake.Lake
	// Tables lists the generated tables in creation order.
	Tables []*table.Table
	// Domain maps table ID to its index in the domain registry.
	Domain map[string]int
	// EntityDocs maps a folded person-entity name to its document ID; only
	// entities with pages appear.
	EntityDocs map[string]string
	// DocContexts maps a document ID to the table observations whose
	// context sentences the page actually contains — the ground truth for
	// what the page can support or refute.
	DocContexts map[string][]Observation
	// entityOrder preserves page-creation order for determinism.
	entityOrder []string
}

// domainOf returns the domain generator for a table.
func (c *Corpus) domainOf(t *table.Table) domainGen {
	return domains[c.Domain[t.ID]]
}

// Observation records one table cell where a person entity appears, used
// when writing that entity's page and by the task oracles as ground truth.
type Observation struct {
	// Caption is the owning table's caption.
	Caption string
	// Attr is the attribute (column name) observed.
	Attr string
	// Value is the cell value observed.
	Value string
}

// GenerateLake builds the full multi-modal corpus from cfg. Generation is
// deterministic in cfg.Seed.
func GenerateLake(cfg Config) (*Corpus, error) {
	if cfg.NumTables <= 0 {
		return nil, fmt.Errorf("workload: NumTables must be positive, got %d", cfg.NumTables)
	}
	r := detrand.New(cfg.Seed, "corpus")
	pool := newEntityPool(r)

	lake := datalake.New()
	lake.AddSource(datalake.Source{ID: SourceTables, Name: "TabFact-like web tables", TrustPrior: 0.8})
	lake.AddSource(datalake.Source{ID: SourceTexts, Name: "WikiTable-TURL-like entity pages", TrustPrior: 0.7})
	lake.AddSource(datalake.Source{ID: SourceKG, Name: "derived knowledge graph", TrustPrior: 0.6})

	corpus := &Corpus{
		Config:      cfg,
		Lake:        lake,
		Domain:      make(map[string]int),
		EntityDocs:  make(map[string]string),
		DocContexts: make(map[string][]Observation),
	}

	// Weighted domain mix: person-bearing domains (golf, election) are
	// over-represented so the tuple→text task has enough coverage.
	weights := make([]float64, len(domains))
	for i, d := range domains {
		if len(d.personCols) > 0 {
			weights[i] = 3
		} else {
			weights[i] = 1
		}
	}

	// Observations of each person entity across tables, folded name keyed.
	obs := make(map[string][]Observation)
	var obsOrder []string

	for i := 0; i < cfg.NumTables; i++ {
		di := r.Pick(weights)
		d := domains[di]
		id := fmt.Sprintf("tbl-%06d", i)
		t := d.generate(r, id, pool)
		t.SourceID = SourceTables
		if err := lake.AddTable(t); err != nil {
			return nil, fmt.Errorf("workload: add table: %w", err)
		}
		corpus.Tables = append(corpus.Tables, t)
		corpus.Domain[id] = di

		for _, pc := range d.personCols {
			for _, row := range t.Rows {
				name := row[pc]
				f := textutil.Fold(name)
				if _, ok := obs[f]; !ok {
					obsOrder = append(obsOrder, f)
				}
				// Record the attribute context the page will state. When the
				// person is not the table's key (election incumbents), state
				// the key ("recorded a district of ..."), which lets a page
				// confirm or break the person-to-row link; when the person IS
				// the key (golf players), state the first attribute column.
				col := d.keyCol
				if col == pc {
					col = d.attrCols[0]
				}
				obs[f] = append(obs[f], Observation{Caption: t.Caption, Attr: t.Columns[col], Value: row[col]})
			}
		}
	}

	// Entity pages, capped at NumTexts, in first-seen order.
	nTexts := cfg.NumTexts
	if nTexts > len(obsOrder) {
		nTexts = len(obsOrder)
	}
	for i := 0; i < nTexts; i++ {
		f := obsOrder[i]
		docID := fmt.Sprintf("doc-%06d", i)
		d, included := genEntityDoc(r, f, obs[f], pool)
		d.ID = docID
		d.SourceID = SourceTexts
		if err := lake.AddDocument(d); err != nil {
			return nil, fmt.Errorf("workload: add document: %w", err)
		}
		corpus.EntityDocs[f] = docID
		corpus.DocContexts[docID] = included
		corpus.entityOrder = append(corpus.entityOrder, f)
	}

	// Knowledge-graph triples for a fraction of tables (extension modality).
	for _, t := range corpus.Tables {
		if !r.Bool(cfg.KGTableFraction) {
			continue
		}
		d := corpus.domainOf(t)
		for row := range t.Rows {
			for _, tr := range kg.FromTuple(t.Caption, t.Columns, t.Rows[row], d.keyCol, SourceKG) {
				if err := lake.AddTriple(tr); err != nil {
					return nil, err
				}
			}
		}
	}
	return corpus, nil
}
