package graph

import (
	"fmt"
	"runtime"
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
