package graph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
)

// TestNeighborsMatchScan checks the adjacency index against a scan of the
// edges: for every (entity, relationship type, direction) of Fig. 1, the
// default-scale domains and seeded random multigraphs with parallel
// duplicate edges and self loops, Neighbors returns the distinct
// neighbors ordered by sort.Strings of their names, capped at their
// length.
func TestNeighborsMatchScan(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		if err := graphtest.CheckNeighbors(n.Graph); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// TestRunsIgnoreEdgeOrder: a graph's neighbor runs are a function of its
// edges, not of their order. Over the layout corpus, Assemble of each
// graph's parts with the edge list reversed, and with it shuffled by a
// seeded source, gives the graph's Neighbors for every (entity,
// relationship type, direction). Derive of a seeded batch onto the
// shuffled graph, whose runs follow no order of ids, equals the
// graph.Builder reference of the whole state under graphtest.Equal: the
// batch declares names that sort among the old ones, adds edges into old
// runs and new ones, and repeats old triples and its own.
func TestRunsIgnoreEdgeOrder(t *testing.T) {
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range gs {
		g := n.Graph
		rng := rand.New(rand.NewSource(int64(i) + 1))
		edges := make([]graph.Edge, g.NumEdges())
		for id := range edges {
			edges[id] = g.Edge(graph.EdgeID(id))
		}
		reversed := slices.Clone(edges)
		slices.Reverse(reversed)
		shuffled := slices.Clone(edges)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		var prev *graph.EntityGraph
		for _, order := range []struct {
			name  string
			edges []graph.Edge
		}{{"reversed", reversed}, {"shuffled", shuffled}} {
			if prev, err = graphtest.Reassemble(g, order.edges); err != nil {
				t.Fatalf("%s, edges %s: %v", n.Name, order.name, err)
			}
			if err := sameRuns(prev, g); err != nil {
				t.Errorf("%s, edges %s: %v", n.Name, order.name, err)
			}
		}
		d, want, err := seededBatch(rng, prev, shuffled)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		next, err := graph.Derive(prev, d)
		if err != nil {
			t.Fatalf("%s: Derive: %v", n.Name, err)
		}
		if err := graphtest.Equal(next, want); err != nil {
			t.Errorf("%s: derived from the shuffled graph: %v", n.Name, err)
		}
	}
}

// TestAssembleTwoTasks: Assemble sorts the names on one task while the
// other checks the rest and lays the edges out, and neither the outcome
// nor its goroutines depend on how the two were scheduled. Parts with one
// violation of the canonical form beside a duplicate entity name fail
// with the violation, as they would in sequence, and after every error
// return the goroutine count falls back to no more than it started at.
// Assembling each corpus graph's parts ten times gives ten graphs equal
// to it under graphtest.Equal, and the first passes
// graphtest.CheckNeighbors.
func TestAssembleTwoTasks(t *testing.T) {
	// Types a and b, relationship r from a to b, entities x (a), y (b) and
	// a second x, and one edge x -r-> y; each case breaks one more part.
	parts := func() ([]string, []graph.RelType, []graph.Entity, []graph.Edge) {
		return []string{"a", "b"},
			[]graph.RelType{{Name: "r", From: 0, To: 1}},
			[]graph.Entity{{Name: "x", Types: []graph.TypeID{0}}, {Name: "y", Types: []graph.TypeID{1}}, {Name: "x", Types: []graph.TypeID{0}}},
			[]graph.Edge{{From: 0, To: 1, Rel: 0}}
	}
	cases := []struct {
		name  string
		spoil func([]graph.Entity, []graph.Edge)
		want  string
	}{
		{"type list out of order", func(ents []graph.Entity, _ []graph.Edge) { ents[1].Types = []graph.TypeID{1, 0} }, "type list not strictly ascending"},
		{"edge endpoint out of range", func(_ []graph.Entity, edges []graph.Edge) { edges[0].To = 3 }, "edge 0: endpoint out of range"},
		{"endpoint lacks the relationship's type", func(_ []graph.Entity, edges []graph.Edge) { edges[0].From = 1 }, "an endpoint lacks the type"},
		{"duplicate name alone", func([]graph.Entity, []graph.Edge) {}, "duplicate entity"},
	}
	start := runtime.NumGoroutine()
	for _, c := range cases {
		types, rels, ents, edges := parts()
		c.spoil(ents, edges)
		_, err := graph.Assemble(types, rels, ents, edges)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		// A goroutine that has handed back its task may still be on its
		// way out, so give it a moment to end.
		n := runtime.NumGoroutine()
		for wait := 0; n > start && wait < 100; wait++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > start {
			t.Errorf("%s: %d goroutines after Assemble returned, %d before", c.name, n, start)
		}
	}

	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		edges := make([]graph.Edge, n.Graph.NumEdges())
		for id := range edges {
			edges[id] = n.Graph.Edge(graph.EdgeID(id))
		}
		for i := 0; i < 10; i++ {
			g, err := graphtest.Reassemble(n.Graph, edges)
			if err != nil {
				t.Fatalf("%s, assembly %d: %v", n.Name, i, err)
			}
			if err := graphtest.Equal(g, n.Graph); err != nil {
				t.Fatalf("%s, assembly %d: %v", n.Name, i, err)
			}
			if i > 0 {
				continue // equal to the first, which is held to the edges
			}
			if err := graphtest.CheckNeighbors(g); err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
		}
	}
}

// sameRuns reports the first (entity, relationship type, direction) whose
// neighbor run differs between got and want.
func sameRuns(got, want *graph.EntityGraph) error {
	for e := 0; e < want.NumEntities(); e++ {
		for r := 0; r < want.NumRelTypes(); r++ {
			for _, out := range []bool{true, false} {
				id, rel := graph.EntityID(e), graph.RelTypeID(r)
				if g, w := got.Neighbors(id, rel, out), want.Neighbors(id, rel, out); !slices.Equal(g, w) {
					return fmt.Errorf("Neighbors(%d, %d, %v) = %v, want %v", e, r, out, g, w)
				}
			}
		}
	}
	return nil
}

// seededBatch draws a write batch onto prev, whose edge list is edges: new
// entities, each named after an old one so that it sorts next to it and
// bearing its types, and edges of old relationship types between old and
// new entities, with repeats of old edges and of the batch's own. It
// returns the batch and the graph.Builder reference of prev with the
// batch applied, whose edge list is the one Derive documents: prev's,
// with the batch's merged in canonical order.
func seededBatch(rng *rand.Rand, prev *graph.EntityGraph, edges []graph.Edge) (graph.Delta, *graph.EntityGraph, error) {
	var d graph.Delta
	taken := map[string]bool{}
	members := make([][]graph.EntityID, prev.NumTypes())
	for ty := range members {
		members[ty] = slices.Clone(prev.EntitiesOfType(graph.TypeID(ty)))
	}
	for j, n := 0, 1+rng.Intn(8); j < n && prev.NumEntities() > 0; j++ {
		like := prev.Entity(graph.EntityID(rng.Intn(prev.NumEntities())))
		name := fmt.Sprintf("%s %d", like.Name, j)
		if _, old := prev.EntityByName(name); old || taken[name] {
			continue
		}
		taken[name] = true
		id := graph.EntityID(prev.NumEntities() + len(d.Entities))
		d.Entities = append(d.Entities, graph.Entity{Name: name, Types: slices.Clone(like.Types)})
		for _, ty := range like.Types {
			members[ty] = append(members[ty], id)
		}
	}
	for j := 0; j < 40 && prev.NumRelTypes() > 0; j++ {
		switch {
		case j%5 == 3 && len(edges) > 0:
			d.Edges = append(d.Edges, edges[rng.Intn(len(edges))])
		case j%5 == 4 && len(d.Edges) > 0:
			d.Edges = append(d.Edges, d.Edges[rng.Intn(len(d.Edges))])
		default:
			rel := graph.RelTypeID(rng.Intn(prev.NumRelTypes()))
			rt := prev.RelType(rel)
			from, to := members[rt.From], members[rt.To]
			if len(from) > 0 && len(to) > 0 {
				d.Edges = append(d.Edges, graph.Edge{From: from[rng.Intn(len(from))], To: to[rng.Intn(len(to))], Rel: rel})
			}
		}
	}

	var b graph.Builder
	for ty := 0; ty < prev.NumTypes(); ty++ {
		b.Type(prev.TypeName(graph.TypeID(ty)))
	}
	for r := 0; r < prev.NumRelTypes(); r++ {
		rt := prev.RelType(graph.RelTypeID(r))
		b.RelType(rt.Name, rt.From, rt.To)
	}
	for e := 0; e < prev.NumEntities(); e++ {
		ent := prev.Entity(graph.EntityID(e))
		b.Entity(ent.Name, ent.Types...)
	}
	for _, ent := range d.Entities {
		b.Entity(ent.Name, ent.Types...)
	}
	canonical := func(x, y graph.Edge) int {
		if c := cmp.Compare(x.Rel, y.Rel); c != 0 {
			return c
		}
		if c := cmp.Compare(x.From, y.From); c != 0 {
			return c
		}
		return cmp.Compare(x.To, y.To)
	}
	added := slices.Clone(d.Edges)
	slices.SortFunc(added, canonical)
	for _, ed := range edges {
		for ; len(added) > 0 && canonical(added[0], ed) < 0; added = added[1:] {
			b.Edge(added[0].From, added[0].To, added[0].Rel)
		}
		b.Edge(ed.From, ed.To, ed.Rel)
	}
	for _, ed := range added {
		b.Edge(ed.From, ed.To, ed.Rel)
	}
	want, err := b.Build()
	return d, want, err
}
