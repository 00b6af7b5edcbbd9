package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/detrand"
	"repro/internal/lakeio"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Workload names.
const (
	wlClaimsCold = "claims_cold"
	wlTuplesCold = "tuples_cold"
	wlServeHot   = "serve_hot"
	wlIngestLive = "ingest_live"
)

// spec sizes one workload. The window is a fixed number of operations, not
// a duration: provenance grows per verify, so a fixed duration would make
// RSS rise whenever the code gets faster, and counts make accuracy,
// failures and disk ratio repeat exactly. --seconds scales the count:
// perSecond is about the rate the seed commit sustains on two cores, so the
// window lasts about --seconds there. tuples_cold's is twice that rate: at
// 50 operations a second it needs twice the time to collect enough samples
// for a 95th percentile.
type spec struct {
	name      string
	perSecond float64 // window operations per --seconds second
	warm      int     // never-reused operations run before the window
	// The traced replay runs every request several times over (served,
	// direct, step by step traced and untraced), single-threaded, so it
	// takes a shorter stream.
	tracePerSecond float64
	traceWarm      int
}

var specs = []spec{
	{wlClaimsCold, 300, 600, 36, 125},
	{wlTuplesCold, 110, 80, 6, 25},
	{wlServeHot, 5000, hotPool, 1200, hotPool},
	{wlIngestLive, 200, 150, 7, 40},
}

const (
	hotClaims = 384
	hotTuples = 128
	hotPool   = hotClaims + hotTuples
	zipfS     = 1.1
	// liveSample is how many ingested tables are re-verified after the kill
	// and restart on ingest_live.
	liveSample = 200
)

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes returns the warm-up and window operation counts for a --seconds
// value.
func (s spec) sizes(seconds int) (warm, window int) {
	return s.warm, int(math.Round(s.perSecond * float64(seconds)))
}

// traceSizes returns the same for the traced replay.
func (s spec) traceSizes(seconds int) (warm, window int) {
	return s.traceWarm, int(math.Round(s.tracePerSecond * float64(seconds)))
}

// request is one verify call: the object as the server will build it (for
// the in-process traced replay), the pre-encoded HTTP form (for the child
// server), and the verdict the generator's ground truth expects.
type request struct {
	ID    string
	Obj   verify.Generated
	Kinds []datalake.Kind
	Want  string
	Path  string
	Body  []byte
}

// ingest is one write: a fresh table, its encoded request, its user payload
// bytes, and a true lookup claim on it that must verify once it is applied.
type ingest struct {
	Table     *table.Table
	Body      []byte
	UserBytes int64
	Verify    *request
}

// inputs is everything one run feeds the program.
type inputs struct {
	corpus        *workload.Corpus
	seedUserBytes int64
	warm, window  []*request // read workloads
	warmW, winW   []*ingest  // ingest_live
}

// generate builds the lake and the workload's request streams. The lake and
// the set of objects a workload sends are the same for every seed
// (workload.DefaultConfig() as it stands); the seed decides the order they
// are sent in and, on serve_hot, which objects are popular and every draw.
// Were the lake drawn from the seed too, verdict_accuracy and the disk ratio
// would differ from seed to seed by one to two percent, more than the half
// and one percent they are gated at; this way they repeat exactly and a
// difference between two seeds is noise or order, never another lake.
func generate(sp spec, seed uint64, warm, n int) (*inputs, error) {
	corpus, err := workload.GenerateLake(workload.DefaultConfig())
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: corpus, seedUserBytes: lakeUserBytes(corpus.Lake)}
	r := detrand.New(seed, "bench-"+sp.name)
	switch sp.name {
	case wlClaimsCold, wlTuplesCold:
		build, prefix := claimRequests, "c"
		if sp.name == wlTuplesCold {
			build, prefix = tupleRequests, "t"
		}
		reqs, err := build(corpus, warm+n, prefix)
		if err != nil {
			return nil, err
		}
		in.warm, in.window = reqs[:warm], reqs[warm:]
		shuffle(r, in.warm)
		shuffle(r, in.window)
	case wlServeHot:
		pool, err := claimRequests(corpus, hotClaims, "hc")
		if err != nil {
			return nil, err
		}
		tuples, err := tupleRequests(corpus, hotTuples, "ht")
		if err != nil {
			return nil, err
		}
		pool = append(pool, tuples...)
		// Popularity rank is a seeded shuffle of the pool, so hot items are
		// a mix of cheap claims and expensive tuples.
		shuffle(r, pool)
		in.warm = pool
		z := newZipf(len(pool), zipfS)
		in.window = make([]*request, n)
		for i := range in.window {
			in.window[i] = pool[z.draw(r)]
		}
	case wlIngestLive:
		ws, err := liveIngests(warm + n)
		if err != nil {
			return nil, err
		}
		in.warmW, in.winW = ws[:warm], ws[warm:]
		shuffle(r, in.warmW)
		shuffle(r, in.winW)
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}
	return in, nil
}

// prefix returns the inputs cut down to the first warm and n operations,
// sharing the lake.
func (in *inputs) prefix(warm, n int) *inputs {
	out := *in
	if in.winW != nil {
		out.warmW, out.winW = in.warmW[:warm], in.winW[:n]
	} else {
		out.warm, out.window = in.warm[:warm], in.window[:n]
	}
	return &out
}

// shuffle puts s in a seeded order. Warm-up and window are shuffled apart,
// so the window holds the same objects whatever the seed.
func shuffle[T any](r *detrand.Rand, s []T) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// saveLake writes the seeded lake where `verifai serve -lake` reads it.
func (in *inputs) saveLake(dir string) error {
	return lakeio.Save(in.corpus.Lake, dir)
}

// tableUserBytes counts a table's user payload: caption, column names and
// cells.
func tableUserBytes(t *table.Table) int64 {
	n := int64(len(t.Caption))
	for _, c := range t.Columns {
		n += int64(len(c))
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			n += int64(len(cell))
		}
	}
	return n
}

// lakeUserBytes counts the user payload of a lake: table payloads plus
// document text. Triples are derived from the tables and not counted.
func lakeUserBytes(l *datalake.Lake) int64 {
	var n int64
	for _, id := range l.TableIDs() {
		if t, ok := l.Table(id); ok {
			n += tableUserBytes(t)
		}
	}
	for _, id := range l.DocIDs() {
		if d, ok := l.Document(id); ok {
			n += int64(len(d.Text))
		}
	}
	return n
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // DTOs of strings and slices always marshal
	}
	return b
}

func verdictFor(label bool) string {
	if label {
		return verify.Verified.String()
	}
	return verify.Refuted.String()
}

// claimRequest encodes one claim and rebuilds the object exactly as the
// server's handler does: from the parsed text.
func claimRequest(id, text, want string) (*request, error) {
	c, err := claims.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("claim %s does not parse: %w", id, err)
	}
	return &request{
		ID:    id,
		Obj:   verify.NewClaimObject(id, c),
		Kinds: []datalake.Kind{datalake.KindTable},
		Want:  want,
		Path:  "/v1/verify/claim",
		Body:  mustJSON(server.ClaimRequest{ID: id, Text: text, Kinds: []string{"table"}}),
	}, nil
}

// claimRequests samples n labeled claims over the corpus, each with its own
// object ID.
func claimRequests(corpus *workload.Corpus, n int, prefix string) ([]*request, error) {
	tasks, err := corpus.ClaimTasks(n)
	if err != nil {
		return nil, err
	}
	out := make([]*request, n)
	for i, ct := range tasks {
		out[i], err = claimRequest(fmt.Sprintf("%s-%06d", prefix, i), ct.Claim.Text, verdictFor(ct.Label))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tupleRequests samples n tuple-completion tasks. Even tasks carry the true
// value (expected Verified); odd tasks carry another value of the same
// column (expected Refuted).
func tupleRequests(corpus *workload.Corpus, n int, prefix string) ([]*request, error) {
	tasks, err := corpus.TupleTasks(n)
	if err != nil {
		return nil, err
	}
	out := make([]*request, n)
	for i, tt := range tasks {
		value, label := tt.TrueValue, true
		if i%2 == 1 {
			value, label = wrongValue(corpus, tt), false
		}
		id := fmt.Sprintf("%s-%06d", prefix, i)
		tp := tt.Tuple.WithValue(tt.MaskedAttr(), value)
		out[i] = &request{
			ID: id,
			// The server sees only caption, columns and values.
			Obj:   verify.NewTupleObject(id, table.Tuple{Caption: tp.Caption, Columns: tp.Columns, Values: tp.Values}, tt.MaskedAttr()),
			Kinds: []datalake.Kind{datalake.KindTuple, datalake.KindText},
			Want:  verdictFor(label),
			Path:  "/v1/verify/tuple",
			Body: mustJSON(server.TupleRequest{
				ID: id, Caption: tp.Caption, Columns: tp.Columns, Values: tp.Values,
				Attr: tt.MaskedAttr(), Kinds: []string{"tuple", "text"},
			}),
		}
	}
	return out, nil
}

// wrongValue picks the first value of the masked column that differs from
// the truth, or a marked-up truth when the column is constant.
func wrongValue(corpus *workload.Corpus, tt workload.TupleTask) string {
	if t, ok := corpus.Lake.Table(tt.TableID); ok {
		for _, v := range t.Column(tt.MaskedCol) {
			if v != "" && v != tt.TrueValue {
				return v
			}
		}
	}
	return tt.TrueValue + " jr"
}

// liveIngests builds n fresh tables from a second corpus (IDs prefixed
// live-, so they never collide with the seeded lake) and one true lookup
// claim per table. The claimed entity carries a per-table marker, so no
// other table of either corpus can support or refute the claim: once the
// table is applied, the only decisive evidence is the table itself.
func liveIngests(n int) ([]*ingest, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed ^= 0x6c697665 // "live"
	cfg.NumTables = n
	cfg.NumTexts = 0
	cfg.KGTableFraction = 0
	second, err := workload.GenerateLake(cfg)
	if err != nil {
		return nil, err
	}
	defer second.Lake.Close()
	out := make([]*ingest, n)
	for i, src := range second.Tables {
		t := src.Clone()
		t.ID = fmt.Sprintf("live-%06d", i)
		t.SourceID = workload.SourceTables
		text, err := markEntity(t, i)
		if err != nil {
			return nil, err
		}
		vr, err := claimRequest(fmt.Sprintf("lc-%06d", i), text, verify.Verified.String())
		if err != nil {
			return nil, err
		}
		out[i] = &ingest{
			Table:     t,
			UserBytes: tableUserBytes(t),
			Verify:    vr,
			Body: mustJSON(server.IngestTableRequest{
				ID: t.ID, Caption: t.Caption, Columns: t.Columns, Rows: t.Rows, SourceID: t.SourceID,
			}),
		}
	}
	return out, nil
}

// markEntity appends a per-table marker to one non-numeric cell of t and
// returns the text of a lookup claim about that cell's row which t supports.
func markEntity(t *table.Table, i int) (string, error) {
	for off := 0; off < t.NumRows(); off++ {
		row := (i + off) % t.NumRows()
		for ec := 0; ec < t.NumCols(); ec++ {
			if t.IsNumericColumn(ec) || t.Rows[row][ec] == "" {
				continue
			}
			for ac := 0; ac < t.NumCols(); ac++ {
				if ac == ec || t.Rows[row][ac] == "" {
					continue
				}
				orig := t.Rows[row][ec]
				t.Rows[row][ec] = fmt.Sprintf("%s lv%06d", orig, i)
				c := claims.Claim{
					Context: t.Caption, Entities: []string{t.Rows[row][ec]},
					Attribute: t.Columns[ac], Op: claims.OpLookup, Value: t.Rows[row][ac],
				}
				text := c.Render()
				if parsed, err := claims.Parse(text); err == nil {
					if out, _ := claims.Eval(parsed, t); out == claims.Supports {
						return text, nil
					}
				}
				t.Rows[row][ec] = orig
			}
		}
	}
	return "", fmt.Errorf("table %s: no cell yields a supported lookup claim", t.ID)
}
