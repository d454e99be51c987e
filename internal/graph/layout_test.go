package graph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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
			if prev, err = assembleWith(g, order.edges); err != nil {
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

// assembleWith assembles g's types, relationship types and entities with
// the given edges.
func assembleWith(g *graph.EntityGraph, edges []graph.Edge) (*graph.EntityGraph, error) {
	types := make([]string, g.NumTypes())
	for ty := range types {
		types[ty] = g.TypeName(graph.TypeID(ty))
	}
	rels := make([]graph.RelType, g.NumRelTypes())
	for r := range rels {
		rels[r] = g.RelType(graph.RelTypeID(r))
	}
	ents := make([]graph.Entity, g.NumEntities())
	for e := range ents {
		ent := g.Entity(graph.EntityID(e))
		ents[e] = graph.Entity{Name: ent.Name, Types: slices.Clone(ent.Types)}
	}
	return graph.Assemble(types, rels, ents, slices.Clone(edges))
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
	for r := 0; r < prev.NumRelTypes(); r++ {
		d.Rels = append(d.Rels, prev.RelType(graph.RelTypeID(r)))
	}
	for _, ed := range d.Edges {
		d.Rels[ed.Rel].EdgeCount++
	}

	var b graph.Builder
	for ty := 0; ty < prev.NumTypes(); ty++ {
		b.Type(prev.TypeName(graph.TypeID(ty)))
	}
	for _, rt := range d.Rels {
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
