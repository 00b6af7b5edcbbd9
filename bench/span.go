package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch; Parent is the ID of the span that caused this one
// (-1 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine (the traced replay is sequential). A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping or parallel children count
// once (their union), and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			children[s.Parent] = append(children[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := int64(0), s.Start
		for _, c := range ivs {
			if c.b <= end {
				continue
			}
			covered += c.b - max(c.a, end)
			end = c.b
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals sums duration and self time over the spans of one name.
type spanTotals struct {
	count  int
	durNS  int64
	selfNS int64
}

// totals maps a span name to its sums.
type totals map[string]*spanTotals

// mean is the mean duration in nanoseconds of the spans named name, 0 when
// there are none.
func (t totals) mean(name string) float64 {
	if s := t[name]; s != nil && s.count > 0 {
		return float64(s.durNS) / float64(s.count)
	}
	return 0
}

func totalsByName(spans []span) totals {
	self := selfTimes(spans)
	out := make(totals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.count++
		t.durNS += s.End - s.Start
		t.selfNS += self[i]
	}
	return out
}

// writeSpans writes the spans as one JSON array to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
