package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestAssembleExactAdjacency: on a multigraph, each direction's rel and
// nbr arrays hold one entry per distinct triple, and the graph keeps no
// slot for a parallel copy: what Assemble retains beyond its arguments
// stays under the 16 B per edge that one slot per edge and direction
// would cost.
func TestAssembleExactAdjacency(t *testing.T) {
	const people, films, degree, copies = 1000, 1000, 10, 8
	types := []string{"PERSON", "FILM"}
	rels := []RelType{{Name: "Actor", From: 0, To: 1}}
	ents := make([]Entity, 0, people+films)
	for i := 0; i < people+films; i++ {
		ents = append(ents, Entity{Name: fmt.Sprint(i), Types: []TypeID{TypeID(i / people)}})
	}
	edges := make([]Edge, 0, people*degree*copies)
	for p := 0; p < people; p++ {
		for j := 0; j < degree; j++ {
			f := EntityID(people + (p*7+j*31)%films)
			for c := 0; c < copies; c++ {
				edges = append(edges, Edge{From: EntityID(p), To: f, Rel: 0})
			}
		}
	}
	distinct := people * degree

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := Assemble(types, rels, ents, edges)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(g)

	for dir, a := range map[string]adjacency{"out": g.out, "in": g.in} {
		if len(a.rel) != distinct || cap(a.rel) != distinct || len(a.nbr) != distinct || cap(a.nbr) != distinct {
			t.Errorf("%s: rel len %d cap %d, nbr len %d cap %d; want all %d",
				dir, len(a.rel), cap(a.rel), len(a.nbr), cap(a.nbr), distinct)
		}
	}
	if limit := int64(16 * len(edges)); retained >= limit {
		t.Errorf("Assemble retained %d B for %d edges (%d distinct), want under %d B", retained, len(edges), distinct, limit)
	}
}

// TestDeriveSharesNameOrder: a batch that declares no entity shares its
// predecessor's name order instead of copying it.
func TestDeriveSharesNameOrder(t *testing.T) {
	prev, err := Assemble([]string{"T"}, nil, []Entity{{Name: "b", Types: []TypeID{0}}, {Name: "a", Types: []TypeID{0}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Derive(prev, Delta{Types: []string{"U"}})
	if err != nil {
		t.Fatal(err)
	}
	if &next.names.rank[0] != &prev.names.rank[0] || &next.names.byRank[0] != &prev.names.byRank[0] {
		t.Fatal("a batch without entities copied the name order")
	}
}

// TestAdoptSharesCanonicalEdges: Adopt shares a source's edge list that
// is already in canonical order, and otherwise makes a copy sorted as
// slices.SortFunc(compareEdges) sorts, leaving the source's as it was.
// Either way every table a Derive appends into, and a derived source's
// edge log, is capped at its length in the copy.
func TestAdoptSharesCanonicalEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []string{"A", "B"}
	rels := []RelType{{Name: "r", From: 0, To: 1}, {Name: "s", From: 1, To: 1}, {Name: "r", From: 0, To: 0}}
	var ents []Entity
	for i := 0; i < 40; i++ {
		ents = append(ents, Entity{Name: fmt.Sprint(i), Types: []TypeID{TypeID(i % 2)}})
	}
	var edges []Edge
	for len(edges) < 300 {
		r := RelTypeID(rng.Intn(len(rels)))
		from, to := EntityID(2*rng.Intn(20)+int(rels[r].From)), EntityID(2*rng.Intn(20)+int(rels[r].To))
		for c := rng.Intn(3); c >= 0; c-- { // parallel copies
			edges = append(edges, Edge{From: from, To: to, Rel: r})
		}
	}
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, compareEdges)
	for _, c := range []struct {
		name   string
		edges  []Edge
		shared bool
	}{{"canonical", sorted, true}, {"in any order", edges, false}} {
		g, err := Assemble(types, slices.Clone(rels), slices.Clone(ents), slices.Clone(c.edges))
		if err != nil {
			t.Fatal(err)
		}
		a := Adopt(g)
		if !slices.Equal(a.edges, sorted) {
			t.Errorf("%s: the adopted edge list is not in canonical order", c.name)
		}
		if shared := &a.edges[0] == &g.edges[0]; shared != c.shared {
			t.Errorf("%s: the adopted edge list shared = %v, want %v", c.name, shared, c.shared)
		}
		if !slices.Equal(g.edges, c.edges) {
			t.Errorf("%s: Adopt changed the source's edge list", c.name)
		}
		checkAdoptCapped(t, c.name, a)
	}

	g, err := Assemble(types, slices.Clone(rels), slices.Clone(ents), slices.Clone(sorted))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Entities: []Entity{{Name: "new", Types: []TypeID{0}}}}
	for i := 0; i < 3; i++ {
		d.Edges = append(d.Edges, Edge{From: 40, To: EntityID(2 * i), Rel: 2})
	}
	derived, err := Derive(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if derived, err = Derive(derived, Delta{Edges: []Edge{{From: 40, To: 40, Rel: 2}}}); err != nil {
		t.Fatal(err)
	}
	a := Adopt(derived)
	if a.log == nil || cap(a.log.added) != len(a.log.added) {
		t.Error("derived source: the adopted edge log may be appended into")
	}
	if !slices.Equal(a.edgeList(), derived.edgeList()) {
		t.Error("derived source: the adopted edge list differs from the source's")
	}
	checkAdoptCapped(t, "derived source", a)
}

func checkAdoptCapped(t *testing.T, what string, a *EntityGraph) {
	t.Helper()
	if cap(a.entities) != len(a.entities) {
		t.Errorf("%s: the adopted entity table may be appended into", what)
	}
	for ty, et := range a.types {
		if cap(et.Entities) != len(et.Entities) {
			t.Errorf("%s: the adopted entity list of type %d may be appended into", what, ty)
		}
	}
}
