package kg

import (
	"reflect"
	"strings"
	"testing"
)

func sampleGraph() *Graph {
	g := NewGraph()
	g.Add(Triple{Subject: "tommy bolt", Predicate: "money of 1954 open", Object: "570", SourceID: "s1"})
	g.Add(Triple{Subject: "tommy bolt", Predicate: "country", Object: "united states", SourceID: "s1"})
	g.Add(Triple{Subject: "ben hogan", Predicate: "money of 1954 open", Object: "570", SourceID: "s2"})
	g.Add(Triple{Subject: "ed furgol", Predicate: "beat", Object: "tommy bolt", SourceID: "s1"})
	return g
}

func TestAddAndLen(t *testing.T) {
	g := sampleGraph()
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestAbout(t *testing.T) {
	g := sampleGraph()
	ts := g.About("Tommy_Bolt") // folded lookup
	if len(ts) != 2 {
		t.Fatalf("About = %d triples", len(ts))
	}
	if ts[0].Predicate != "money of 1954 open" {
		t.Errorf("About order wrong: %+v", ts)
	}
	if got := g.About("nobody"); got != nil && len(got) != 0 {
		t.Errorf("About(nobody) = %v", got)
	}
}

func TestLookup(t *testing.T) {
	g := sampleGraph()
	got := g.Lookup("tommy bolt", "Country")
	if !reflect.DeepEqual(got, []string{"united states"}) {
		t.Errorf("Lookup = %v", got)
	}
	if got := g.Lookup("tommy bolt", "height"); got != nil {
		t.Errorf("Lookup absent = %v", got)
	}
}

func TestEntities(t *testing.T) {
	g := sampleGraph()
	ents := g.Entities()
	want := []string{"ben hogan", "ed furgol", "tommy bolt"}
	if !reflect.DeepEqual(ents, want) {
		t.Errorf("Entities = %v, want %v", ents, want)
	}
}

func TestSerializeEntity(t *testing.T) {
	g := sampleGraph()
	s := g.SerializeEntity("tommy bolt")
	for _, want := range []string{"tommy bolt", "money of 1954 open", "570", "country", "united states"} {
		if !strings.Contains(s, want) {
			t.Errorf("SerializeEntity missing %q in %q", want, s)
		}
	}
	if got := g.SerializeEntity("nobody"); got != "" {
		t.Errorf("SerializeEntity(nobody) = %q", got)
	}
}

func TestFromTuple(t *testing.T) {
	cols := []string{"place", "player", "money"}
	vals := []string{"t6", "tommy bolt", "570"}
	ts := FromTuple("1954 open", cols, vals, 1, "src")
	if len(ts) != 2 {
		t.Fatalf("FromTuple = %d triples, want 2", len(ts))
	}
	if ts[0].Subject != "tommy bolt" || ts[0].Predicate != "place of 1954 open" || ts[0].Object != "t6" {
		t.Errorf("triple 0 = %+v", ts[0])
	}
	if ts[1].Predicate != "money of 1954 open" || ts[1].Object != "570" {
		t.Errorf("triple 1 = %+v", ts[1])
	}
	if ts[0].SourceID != "src" {
		t.Errorf("source = %q", ts[0].SourceID)
	}
}

func TestFromTupleEdgeCases(t *testing.T) {
	if got := FromTuple("c", []string{"a"}, []string{"v"}, -1, "s"); got != nil {
		t.Errorf("bad keyCol = %v", got)
	}
	if got := FromTuple("c", []string{"a", "b"}, []string{"v"}, 0, "s"); got != nil {
		t.Errorf("arity mismatch = %v", got)
	}
	// Empty values are skipped.
	ts := FromTuple("", []string{"k", "x"}, []string{"key", ""}, 0, "s")
	if len(ts) != 0 {
		t.Errorf("empty value produced triples: %v", ts)
	}
	// Without a caption the predicate is the bare column name.
	ts = FromTuple("", []string{"k", "x"}, []string{"key", "val"}, 0, "s")
	if len(ts) != 1 || ts[0].Predicate != "x" {
		t.Errorf("bare predicate = %+v", ts)
	}
}
