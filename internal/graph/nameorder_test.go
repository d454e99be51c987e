package graph_test

import (
	"bytes"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/storage"
)

// checkNameOrder compares g's name order with a sort of its names.
func checkNameOrder(t *testing.T, what string, g *graph.EntityGraph) {
	t.Helper()
	byName := make([]graph.EntityID, g.NumEntities())
	for i := range byName {
		byName[i] = graph.EntityID(i)
	}
	sort.Slice(byName, func(i, j int) bool { return g.EntityName(byName[i]) < g.EntityName(byName[j]) })
	order := g.NameOrder()
	for r, e := range byName {
		if got := order.Rank(e); got != int32(r) {
			t.Fatalf("%s: %q ranks %d, want %d", what, g.EntityName(e), got, r)
		}
	}
}

// namesGraph builds a graph of the given entity names and no edges.
func namesGraph(t *testing.T, names []string) *graph.EntityGraph {
	t.Helper()
	var b graph.Builder
	ty := b.Type("T")
	for _, n := range names {
		b.Entity(n, ty)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNameOrderMatchesSort: the derived order ranks every entity of the
// layout corpus where a sort of the names puts it. Neither Assemble nor a
// snapshot load derives it.
func TestNameOrderMatchesSort(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		var buf bytes.Buffer
		if err := storage.Write(&buf, n.Graph); err != nil {
			t.Fatal(err)
		}
		loaded, err := storage.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.EntityGraph{n.Graph, loaded} {
			if g.HasNameOrder() {
				t.Fatalf("%s: a graph has a name order before its first use", n.Name)
			}
			checkNameOrder(t, n.Name, g)
			if !g.HasNameOrder() || g.NameOrder() != g.NameOrder() {
				t.Fatalf("%s: the order is not derived once and shared", n.Name)
			}
		}
	}
}

// TestInheritNameOrder: a graph that extends another's entities inherits
// its order, merged with the new names, exactly as a fresh derive ranks
// them; with no new entity it shares the order; from a graph without an
// order, or with more entities, it inherits nothing.
func TestInheritNameOrder(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		names := make([]string, n.Graph.NumEntities())
		for i := range names {
			names[i] = n.Graph.EntityName(graph.EntityID(i))
		}
		full := namesGraph(t, names)
		for _, cut := range []int{0, 1, len(names) / 3, len(names) - 1, len(names)} {
			prev := namesGraph(t, names[:cut])
			next := namesGraph(t, names)
			next.InheritNameOrder(prev)
			if next.HasNameOrder() {
				t.Fatalf("%s, %d of %d: inherited an order prev does not have", n.Name, cut, len(names))
			}
			prev.NameOrder()
			next.InheritNameOrder(prev)
			if !next.HasNameOrder() {
				t.Fatalf("%s, %d of %d: inherited no order", n.Name, cut, len(names))
			}
			if cut == len(names) && next.NameOrder() != prev.NameOrder() {
				t.Fatalf("%s: an order with no new entity is not shared", n.Name)
			}
			checkNameOrder(t, n.Name, next)
		}
		shrunk := namesGraph(t, names[:len(names)/2])
		full.NameOrder()
		shrunk.InheritNameOrder(full)
		if shrunk.HasNameOrder() {
			t.Fatalf("%s: inherited an order from a graph with more entities", n.Name)
		}
	}
}
