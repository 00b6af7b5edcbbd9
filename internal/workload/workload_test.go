package workload

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/claims"
	"repro/internal/table"
	"repro/internal/textutil"
)

// smallConfig keeps corpus tests fast.
func smallConfig() Config {
	c := DefaultConfig()
	c.NumTables = 250
	c.NumTexts = 200
	return c
}

func buildCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateLake(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateLakeCounts(t *testing.T) {
	c := buildCorpus(t)
	stats := c.Lake.Stats()
	if stats.Tables != 250 {
		t.Errorf("tables = %d", stats.Tables)
	}
	if stats.Docs == 0 || stats.Docs > 200 {
		t.Errorf("docs = %d", stats.Docs)
	}
	if stats.Tuples < 250*3 {
		t.Errorf("tuples = %d (suspiciously few)", stats.Tuples)
	}
	if stats.Triples == 0 {
		t.Error("no KG triples generated")
	}
	if len(c.Tables) != 250 {
		t.Errorf("corpus.Tables = %d", len(c.Tables))
	}
}

func TestGenerateLakeDeterministic(t *testing.T) {
	a, err := GenerateLake(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateLake(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tables {
		if a.Tables[i].Caption != b.Tables[i].Caption {
			t.Fatalf("table %d captions differ: %q vs %q", i, a.Tables[i].Caption, b.Tables[i].Caption)
		}
		if a.Tables[i].NumRows() != b.Tables[i].NumRows() {
			t.Fatalf("table %d row counts differ", i)
		}
	}
	adocs, bdocs := a.Lake.DocIDs(), b.Lake.DocIDs()
	if len(adocs) != len(bdocs) {
		t.Fatal("doc counts differ")
	}
	for i := range adocs {
		da, _ := a.Lake.Document(adocs[i])
		db, _ := b.Lake.Document(bdocs[i])
		if da.Text != db.Text {
			t.Fatalf("doc %d text differs", i)
		}
	}
}

func TestGenerateLakeRejectsBadConfig(t *testing.T) {
	if _, err := GenerateLake(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTableSchemasValid(t *testing.T) {
	c := buildCorpus(t)
	for _, tbl := range c.Tables {
		d := c.domainOf(tbl)
		if d.keyCol >= tbl.NumCols() {
			t.Fatalf("table %s: keyCol %d out of range", tbl.ID, d.keyCol)
		}
		for _, ac := range d.attrCols {
			if ac >= tbl.NumCols() {
				t.Fatalf("table %s: attrCol %d out of range", tbl.ID, ac)
			}
		}
		for _, row := range tbl.Rows {
			if len(row) != tbl.NumCols() {
				t.Fatalf("table %s: ragged row", tbl.ID)
			}
		}
		if tbl.Caption == "" {
			t.Fatalf("table %s: empty caption", tbl.ID)
		}
	}
}

func TestEntityDocsLinkBack(t *testing.T) {
	c := buildCorpus(t)
	if len(c.EntityDocs) == 0 {
		t.Fatal("no entity docs")
	}
	for entity, docID := range c.EntityDocs {
		d, ok := c.Lake.Document(docID)
		if !ok {
			t.Fatalf("entity %q doc %q missing from lake", entity, docID)
		}
		if textutil.Fold(d.Title) != entity {
			t.Errorf("doc title %q does not fold to entity %q", d.Title, entity)
		}
		// DocContexts entries must literally appear in the text.
		for _, obs := range c.DocContexts[docID] {
			if !strings.Contains(textutil.Fold(d.Text), textutil.Fold(obs.Caption)) {
				t.Errorf("doc %s claims context %q but text lacks it", docID, obs.Caption)
			}
		}
	}
}

func TestTupleTasks(t *testing.T) {
	c := buildCorpus(t)
	tasks, err := c.TupleTasks(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 30 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	seen := make(map[string]bool)
	for _, task := range tasks {
		key := task.TableID + "#" + task.MaskedAttr() + "#" + string(rune(task.Row))
		if seen[key] {
			t.Error("duplicate task")
		}
		seen[key] = true
		tbl, ok := c.Lake.Table(task.TableID)
		if !ok {
			t.Fatalf("task table %q missing", task.TableID)
		}
		if got := tbl.Rows[task.Row][task.MaskedCol]; got != task.TrueValue {
			t.Errorf("TrueValue %q != cell %q", task.TrueValue, got)
		}
		if len(task.RelevantDocIDs) == 0 {
			t.Error("task without relevant docs")
		}
		masked := task.Tuple.WithValue(task.MaskedAttr(), table.Missing)
		if v, _ := masked.Value(task.MaskedAttr()); v != "NaN" {
			t.Errorf("masked attr = %q", v)
		}
		if task.Entity() == "" {
			t.Error("task without entity")
		}
	}
}

func TestClaimTasksEvaluateToLabel(t *testing.T) {
	c := buildCorpus(t)
	tasks, err := c.ClaimTasks(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 60 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	trueCount := 0
	opsSeen := make(map[claims.AggOp]int)
	for _, task := range tasks {
		tbl, ok := c.Lake.Table(task.TableID)
		if !ok {
			t.Fatalf("claim table %q missing", task.TableID)
		}
		out, expl := claims.Eval(task.Claim, tbl)
		if task.Label && out != claims.Supports {
			t.Errorf("true claim evaluates %v (%s): %s", out, expl, task.Claim.Text)
		}
		if !task.Label && out != claims.Refutes {
			t.Errorf("false claim evaluates %v (%s): %s", out, expl, task.Claim.Text)
		}
		if task.Label {
			trueCount++
		}
		opsSeen[task.Claim.Op]++
		// The rendered text must parse back to the same op.
		parsed, err := claims.Parse(task.Claim.Text)
		if err != nil {
			t.Errorf("claim text unparseable: %q (%v)", task.Claim.Text, err)
		} else if parsed.Op != task.Claim.Op {
			t.Errorf("claim op drifted: %v -> %v", task.Claim.Op, parsed.Op)
		}
	}
	if trueCount < 15 || trueCount > 45 {
		t.Errorf("true/false imbalance: %d/60 true", trueCount)
	}
	if opsSeen[claims.OpLookup] == 0 || opsSeen[claims.OpCount] == 0 {
		t.Errorf("op mix missing kinds: %v", opsSeen)
	}
}

func TestDropYearToken(t *testing.T) {
	got, changed := dropYearToken("ohio congressional districts 1994")
	if !changed || got != "ohio congressional districts" {
		t.Errorf("dropYearToken = %q, %v", got, changed)
	}
	if _, changed := dropYearToken("climate of dover ohio"); changed {
		t.Error("yearless caption changed")
	}
	if _, changed := dropYearToken("1954 open (golf)"); changed {
		t.Error("short caption changed")
	}
}

func TestCaseData(t *testing.T) {
	ohio := OhioDistrictsTable()
	if ohio.NumRows() != 4 || ohio.ColumnIndex("incumbent") != 1 {
		t.Error("Ohio table malformed")
	}
	film := FilmographyTable()
	if row := slices.Index(film.Column(1), "stomp the yard"); row != 2 {
		t.Errorf("filmography row = %d", row)
	}
	e1 := USOpen1954Table()
	if e1.NumRows() != 10 {
		t.Errorf("E1 rows = %d", e1.NumRows())
	}
	// The Figure 4 claim refutes against E1 with total 1710.
	out, expl := claims.Eval(GolfClaim(), e1)
	if out != claims.Refutes || !strings.Contains(expl, "1710") {
		t.Errorf("golf claim vs E1 = %v (%s)", out, expl)
	}
	// And is unrelated to E2.
	out, _ = claims.Eval(GolfClaim(), USOpen1959Table())
	if out != claims.Unrelated {
		t.Errorf("golf claim vs E2 = %v", out)
	}
	// Stomp the Yard claim supports against the filmography.
	out, _ = claims.Eval(StompTheYardClaim(), film)
	if out != claims.Supports {
		t.Errorf("stomp claim = %v", out)
	}
}

func TestAddCaseData(t *testing.T) {
	c := buildCorpus(t)
	before := c.Lake.Stats()
	if err := c.AddCaseData(); err != nil {
		t.Fatal(err)
	}
	after := c.Lake.Stats()
	if after.Tables != before.Tables+4 {
		t.Errorf("case tables not added: %d -> %d", before.Tables, after.Tables)
	}
	if after.Docs != before.Docs+1 {
		t.Errorf("case doc not added")
	}
	// Case tables are NOT in c.Tables (no domain metadata).
	for _, tbl := range c.Tables {
		if tbl.ID == "case-ohio" {
			t.Error("case table leaked into corpus.Tables")
		}
	}
	// Adding twice fails loudly (duplicate IDs).
	if err := c.AddCaseData(); err == nil {
		t.Error("double AddCaseData succeeded")
	}
}

func TestEntityPoolReuse(t *testing.T) {
	c := buildCorpus(t)
	// With entityReuse 0.4 some person entities must appear in multiple
	// tables.
	counts := make(map[string]int)
	for _, tbl := range c.Tables {
		d := c.domainOf(tbl)
		for _, pc := range d.personCols {
			seen := make(map[string]bool)
			for _, row := range tbl.Rows {
				f := textutil.Fold(row[pc])
				if !seen[f] {
					counts[f]++
					seen[f] = true
				}
			}
		}
	}
	reused := 0
	for _, n := range counts {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no entity reuse across tables")
	}
}
