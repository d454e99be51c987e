package graph_test

import (
	"fmt"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
)

func mustType(t *testing.T, g *graph.EntityGraph, name string) graph.TypeID {
	t.Helper()
	id, ok := g.TypeByName(name)
	if !ok {
		t.Fatalf("type %q not found", name)
	}
	return id
}

func mustEntity(t *testing.T, g *graph.EntityGraph, name string) graph.EntityID {
	t.Helper()
	id, ok := g.EntityByName(name)
	if !ok {
		t.Fatalf("entity %q not found", name)
	}
	return id
}

func TestFig1Sizes(t *testing.T) {
	g := fig1.Graph()
	st := g.Stats()
	if st.Types != 6 {
		t.Errorf("types = %d, want 6 (Fig. 3)", st.Types)
	}
	if st.RelTypes != 7 {
		t.Errorf("relationship types = %d, want 7 (Fig. 3)", st.RelTypes)
	}
	if st.Entities != 14 {
		t.Errorf("entities = %d, want 14", st.Entities)
	}
	if st.Edges != 21 {
		t.Errorf("edges = %d, want 21 (6+4+5+3+3)", st.Edges)
	}
}

func TestFig1Validates(t *testing.T) {
	g := fig1.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFig1TypeCoverage(t *testing.T) {
	g := fig1.Graph()
	cases := map[string]int{
		fig1.Film:         4, // Scov(FILM) = 4, Sec. 3.2
		fig1.FilmActor:    2,
		fig1.FilmDirector: 3,
		fig1.FilmProducer: 1,
		fig1.FilmGenre:    2,
		fig1.Award:        3,
	}
	for name, want := range cases {
		id := mustType(t, g, name)
		if got := g.TypeCoverage(id); got != want {
			t.Errorf("coverage(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestFig1RelEdgeCounts(t *testing.T) {
	g := fig1.Graph()
	counts := map[string]int{}
	for i := 0; i < g.NumRelTypes(); i++ {
		rt := g.RelType(graph.RelTypeID(i))
		key := fmt.Sprintf("%s(%s,%s)", rt.Name, g.TypeName(rt.From), g.TypeName(rt.To))
		counts[key] = rt.EdgeCount
	}
	want := map[string]int{
		"Actor(FILM ACTOR,FILM)":                 6,
		"Director(FILM DIRECTOR,FILM)":           4, // Scov(Director) = 4
		"Genres(FILM,FILM GENRE)":                5, // Scov(Genres) = 5
		"Producer(FILM PRODUCER,FILM)":           2,
		"Executive Producer(FILM PRODUCER,FILM)": 1,
		"Award Winners(FILM ACTOR,AWARD)":        2,
		"Award Winners(FILM DIRECTOR,AWARD)":     1,
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("edge count %s = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("relationship type set = %v, want %v", counts, want)
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	// Will Smith has two edges to I, Robot (Actor and Executive Producer).
	g := fig1.Graph()
	will := mustEntity(t, g, "Will Smith")
	irobot := mustEntity(t, g, "I, Robot")
	var parallel int
	for i := 0; i < g.NumEdges(); i++ {
		if ed := g.Edge(graph.EdgeID(i)); ed.From == will && ed.To == irobot {
			parallel++
		}
	}
	if parallel != 2 {
		t.Errorf("parallel edges Will Smith -> I, Robot = %d, want 2", parallel)
	}
}

func TestMultipleTypesPerEntity(t *testing.T) {
	g := fig1.Graph()
	will := mustEntity(t, g, "Will Smith")
	actor := mustType(t, g, fig1.FilmActor)
	producer := mustType(t, g, fig1.FilmProducer)
	film := mustType(t, g, fig1.Film)
	if !g.HasType(will, actor) || !g.HasType(will, producer) {
		t.Error("Will Smith should bear both FILM ACTOR and FILM PRODUCER")
	}
	if g.HasType(will, film) {
		t.Error("Will Smith should not bear FILM")
	}
}

func TestNeighbors(t *testing.T) {
	g := fig1.Graph()
	mib := mustEntity(t, g, "Men in Black")
	var genres graph.RelTypeID = graph.None
	var director graph.RelTypeID = graph.None
	for i := 0; i < g.NumRelTypes(); i++ {
		switch g.RelType(graph.RelTypeID(i)).Name {
		case fig1.RelGenres:
			genres = graph.RelTypeID(i)
		case fig1.RelDirector:
			director = graph.RelTypeID(i)
		}
	}

	// Outgoing Genres from Men in Black: {Action Film, Science Fiction}.
	got := g.Neighbors(mib, genres, true)
	if len(got) != 2 {
		t.Fatalf("genres of Men in Black = %d values, want 2", len(got))
	}
	names := map[string]bool{}
	for _, id := range got {
		names[g.EntityName(id)] = true
	}
	if !names["Action Film"] || !names["Science Fiction"] {
		t.Errorf("genres of Men in Black = %v", names)
	}

	// Incoming Director to Men in Black: {Barry Sonnenfeld}.
	got = g.Neighbors(mib, director, false)
	if len(got) != 1 || g.EntityName(got[0]) != "Barry Sonnenfeld" {
		t.Errorf("director of Men in Black = %v", got)
	}

	// Hancock has no Genres edges: empty value (t3 in Fig. 2).
	hancock := mustEntity(t, g, "Hancock")
	if got := g.Neighbors(hancock, genres, true); len(got) != 0 {
		t.Errorf("genres of Hancock = %v, want empty", got)
	}
}

func TestNeighborsDeduplicates(t *testing.T) {
	var b graph.Builder
	a := b.Type("A")
	c := b.Type("C")
	r := b.RelType("r", a, c)
	x := b.Entity("x", a)
	y := b.Entity("y", c)
	b.Edge(x, y, r)
	b.Edge(x, y, r) // parallel duplicate
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(x, r, true); len(got) != 1 {
		t.Errorf("neighbors = %v, want single deduplicated value", got)
	}
}

func TestBuilderEdgeInfersTypes(t *testing.T) {
	var b graph.Builder
	a := b.Type("A")
	c := b.Type("C")
	r := b.RelType("r", a, c)
	// Entities declared with no explicit type: the edge's relationship type
	// must endow them.
	x := b.Entity("x")
	y := b.Entity("y")
	b.Edge(x, y, r)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasType(x, a) || !g.HasType(y, c) {
		t.Error("edge should endow endpoint types from its relationship type")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderUntypedEntityFails(t *testing.T) {
	var b graph.Builder
	b.Entity("orphan")
	if _, err := b.Build(); err == nil {
		t.Error("Build should fail for an entity with no type")
	}
}

func TestBuilderRejectsBadRelType(t *testing.T) {
	var b graph.Builder
	a := b.Type("A")
	if id := b.RelType("r", a, graph.TypeID(99)); id != graph.None {
		t.Error("RelType with unknown endpoint should return None")
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build should surface the deferred error")
	}
}

func TestBuilderIdempotentDeclarations(t *testing.T) {
	var b graph.Builder
	if b.Type("A") != b.Type("A") {
		t.Error("Type not idempotent")
	}
	a, c := b.Type("A"), b.Type("C")
	if b.RelType("r", a, c) != b.RelType("r", a, c) {
		t.Error("RelType not idempotent")
	}
	if b.RelType("r", a, c) == b.RelType("r", c, a) {
		t.Error("RelType should distinguish orientations sharing a surface name")
	}
	if b.Entity("x", a) != b.Entity("x") {
		t.Error("Entity not idempotent")
	}
}

func TestEntityLookup(t *testing.T) {
	g := fig1.Graph()
	if _, ok := g.EntityByName("Men in Black"); !ok {
		t.Error("Men in Black should resolve")
	}
	if _, ok := g.EntityByName("Nonexistent"); ok {
		t.Error("Nonexistent should not resolve")
	}
	if _, ok := g.TypeByName("FILM"); !ok {
		t.Error("FILM should resolve")
	}
	if _, ok := g.TypeByName("NOPE"); ok {
		t.Error("NOPE should not resolve")
	}
}

func TestIncidentRelTypes(t *testing.T) {
	g := fig1.Graph()
	film := mustType(t, g, fig1.Film)
	// FILM: incoming Actor, Director, Producer, Executive Producer;
	// outgoing Genres. Five candidate non-key attributes.
	if got := len(g.IncidentRelTypes(film)); got != 5 {
		t.Errorf("incident relationship types on FILM = %d, want 5", got)
	}
	award := mustType(t, g, fig1.Award)
	if got := len(g.IncidentRelTypes(award)); got != 2 {
		t.Errorf("incident relationship types on AWARD = %d, want 2", got)
	}
}

func TestStatsString(t *testing.T) {
	s := graph.Stats{Entities: 2000000, Types: 63, Edges: 18000000, RelTypes: 136}
	want := "2000000 / 63 vertices, 18000000 / 136 edges"
	if got := s.String(); got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	var b graph.Builder
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEntities() != 0 || g.NumTypes() != 0 || g.NumEdges() != 0 {
		t.Error("empty build should produce empty graph")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate(empty): %v", err)
	}
}
