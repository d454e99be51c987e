package graph_test

import (
	"bytes"
	"testing"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
	"github.com/uta-db/previewtables/internal/storage"
)

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

// TestNameOrderMatchesSort: Assemble, directly and through a snapshot
// load, ranks every entity of the layout corpus where a sort of the names
// puts it, and EntityByName finds every name by that order.
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
			if err := graphtest.CheckNames(g); err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
		}
	}
}

// TestInheritNameOrder: a graph Derive extends by new entities merges
// their names into its predecessor's order exactly where a sort of all
// the names puts them, from every cut of the corpus's names, the empty
// graph and the whole list included.
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
			var d graph.Delta
			for _, name := range names[cut:] {
				d.Entities = append(d.Entities, graph.Entity{Name: name, Types: []graph.TypeID{0}})
			}
			next, err := graph.Derive(prev, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := graphtest.CheckNames(next); err != nil {
				t.Fatalf("%s, %d of %d: %v", n.Name, cut, len(names), err)
			}
			if err := graphtest.Equal(next, full); err != nil {
				t.Fatalf("%s, %d of %d: %v", n.Name, cut, len(names), err)
			}
		}
	}
}
