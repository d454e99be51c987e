// Package graphtest supplies what the adjacency-layout tests of the graph,
// score, storage and dynamic packages share: small multigraphs decoded
// from bytes, the graphs the differentials run on and their reassembly
// with the edges in another order, the reference Neighbors
// they compare against, the references a graph's name order, name lookups
// and schema are held to, and a comparison of two graphs through every
// accessor.
package graphtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
)

// Multigraph decodes data into a multigraph of at most 12 types and 64
// entities, built through graph.Builder. Every input decodes: missing
// bytes read as zero. The header bytes pick the type, relationship-type
// and entity counts; then each relationship type takes a surface name
// (one of four, so names repeat across endpoint types) and two endpoint
// types, each entity one or two types, and every remaining byte triple
// one edge (from, relationship type, to). Repeated triples make parallel
// duplicate edges; from == to makes self loops.
func Multigraph(data []byte) (*graph.EntityGraph, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nTypes, nRels, nEnts := 1+next()%12, 1+next()%16, 1+next()%64
	var b graph.Builder
	for t := 0; t < nTypes; t++ {
		b.Type(fmt.Sprintf("T%d", t))
	}
	rels := make([]graph.RelTypeID, nRels)
	for i := range rels {
		name := fmt.Sprintf("r%d", next()%4)
		rels[i] = b.RelType(name, graph.TypeID(next()%nTypes), graph.TypeID(next()%nTypes))
	}
	ents := make([]graph.EntityID, nEnts)
	for i := range ents {
		c := next()
		types := []graph.TypeID{graph.TypeID(c % nTypes)}
		if c&0x80 != 0 {
			types = append(types, graph.TypeID((c>>3)%nTypes))
		}
		ents[i] = b.Entity(fmt.Sprintf("e%d", i), types...)
	}
	for len(data) > 0 {
		from, rel, to := next()%nEnts, next()%nRels, next()%nEnts
		b.Edge(ents[from], ents[to], rels[rel])
	}
	return b.Build()
}

// Random is Multigraph over size bytes drawn from a seeded source.
func Random(seed int64, size int) *graph.EntityGraph {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	g, err := Multigraph(data)
	if err != nil {
		panic(err) // every input decodes into a buildable graph
	}
	return g
}

// Named is one graph of Corpus.
type Named struct {
	Name  string
	Graph *graph.EntityGraph
}

// Corpus returns the graphs the layout differentials run on: Fig. 1, the
// four default-scale domains the fleet benchmark serves (books, film,
// people, tv), and seeded random multigraphs with parallel duplicate
// edges and self loops, small and dense enough that equal value sets
// arise in different first-edge orders.
func Corpus() ([]Named, error) {
	gs := []Named{{"fig1", fig1.Graph()}}
	for _, d := range []string{"books", "film", "people", "tv"} {
		g, err := freebase.Generate(d, freebase.DefaultGenOptions())
		if err != nil {
			return nil, err
		}
		gs = append(gs, Named{d, g})
	}
	for seed := int64(1); seed <= 8; seed++ {
		gs = append(gs, Named{fmt.Sprintf("random-%d", seed), Random(seed, 64+int(seed)*96)})
	}
	return gs, nil
}

// Reassemble assembles g's types, relationship types and entities again
// with the given edges, which it copies.
func Reassemble(g *graph.EntityGraph, edges []graph.Edge) (*graph.EntityGraph, error) {
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

// CheckNeighbors compares g.Neighbors, for every (entity, relationship
// type, direction), against a reference that scans the edges for each
// run's distinct neighbors and orders them by sort.Strings of their
// names, so it reads nothing of the graph's name order. It also checks
// that every result's capacity equals its length, so a caller's append
// cannot write into the next run.
func CheckNeighbors(g *graph.EntityGraph) error {
	type run struct {
		e   graph.EntityID
		rel graph.RelTypeID
		out bool
	}
	type seenKey struct {
		run
		other graph.EntityID
	}
	names := map[run][]string{}
	seen := map[seenKey]bool{}
	add := func(r run, other graph.EntityID) {
		if k := (seenKey{r, other}); !seen[k] {
			seen[k] = true
			names[r] = append(names[r], g.EntityName(other))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(graph.EdgeID(i))
		add(run{ed.From, ed.Rel, true}, ed.To)
		add(run{ed.To, ed.Rel, false}, ed.From)
	}
	ids := make(map[string]graph.EntityID, g.NumEntities())
	for e := 0; e < g.NumEntities(); e++ {
		ids[g.EntityName(graph.EntityID(e))] = graph.EntityID(e)
	}
	want := make(map[run][]graph.EntityID, len(names))
	for r, ns := range names {
		sort.Strings(ns)
		for _, n := range ns {
			want[r] = append(want[r], ids[n])
		}
	}
	for e := 0; e < g.NumEntities(); e++ {
		for r := 0; r < g.NumRelTypes(); r++ {
			for _, out := range []bool{true, false} {
				k := run{graph.EntityID(e), graph.RelTypeID(r), out}
				got := g.Neighbors(k.e, k.rel, k.out)
				if !slices.Equal(got, want[k]) {
					return fmt.Errorf("Neighbors(%d, %d, %v) = %v, want %v", k.e, k.rel, k.out, got, want[k])
				}
				if cap(got) != len(got) {
					return fmt.Errorf("Neighbors(%d, %d, %v): cap %d != len %d", k.e, k.rel, k.out, cap(got), len(got))
				}
			}
		}
	}
	return nil
}

// Equal reports the first difference between got and want: in their
// stats, type names and per-type entity lists, relationship types, entity
// names and type lists, name lookups, neighbor runs (by Neighbors and by
// Runs), schemas, name orders and edge lists. Every list got hands out
// must be capped at its length. A live graph's derived snapshot must be
// Equal to Freeze of the same state.
func Equal(got, want *graph.EntityGraph) error {
	if got.Stats() != want.Stats() {
		return fmt.Errorf("stats %v, want %v", got.Stats(), want.Stats())
	}
	for t := 0; t < want.NumTypes(); t++ {
		id := graph.TypeID(t)
		g, w := got.Type(id), want.Type(id)
		if g.Name != w.Name || !slices.Equal(g.Entities, w.Entities) || !slices.Equal(got.EntitiesOfType(id), w.Entities) {
			return fmt.Errorf("type %d: %q %v, want %q %v", t, g.Name, g.Entities, w.Name, w.Entities)
		}
		if cap(g.Entities) != len(g.Entities) || cap(got.EntitiesOfType(id)) != len(g.Entities) {
			return fmt.Errorf("type %d: entity list not capped at its length", t)
		}
		if tid, ok := got.TypeByName(w.Name); !ok || tid != id {
			return fmt.Errorf("TypeByName(%q) = %d, %v, want %d", w.Name, tid, ok, t)
		}
	}
	for r := 0; r < want.NumRelTypes(); r++ {
		if g, w := got.RelType(graph.RelTypeID(r)), want.RelType(graph.RelTypeID(r)); g != w {
			return fmt.Errorf("relationship type %d: %+v, want %+v", r, g, w)
		}
	}
	gotOrder, wantOrder := got.NameOrder(), want.NameOrder()
	var runs [2]int // want's non-empty runs, out and in
	for e := 0; e < want.NumEntities(); e++ {
		id := graph.EntityID(e)
		g, w := got.Entity(id), want.Entity(id)
		if g.Name != w.Name || !slices.Equal(g.Types, w.Types) {
			return fmt.Errorf("entity %d: %q %v, want %q %v", e, g.Name, g.Types, w.Name, w.Types)
		}
		if eid, ok := got.EntityByName(w.Name); !ok || eid != id {
			return fmt.Errorf("EntityByName(%q) = %d, %v, want %d", w.Name, eid, ok, e)
		}
		if gotOrder.Rank(id) != wantOrder.Rank(id) {
			return fmt.Errorf("entity %d: name rank %d, want %d", e, gotOrder.Rank(id), wantOrder.Rank(id))
		}
		for r := 0; r < want.NumRelTypes(); r++ {
			for dir, out := range []bool{true, false} {
				g, w := got.Neighbors(id, graph.RelTypeID(r), out), want.Neighbors(id, graph.RelTypeID(r), out)
				if !slices.Equal(g, w) || cap(g) != len(g) {
					return fmt.Errorf("Neighbors(%d, %d, %v) = %v (cap %d), want %v", e, r, out, g, cap(g), w)
				}
				if len(w) > 0 {
					runs[dir]++
				}
			}
		}
	}
	if err := sameRuns(got, want, runs); err != nil {
		return err
	}
	if _, ok := got.EntityByName("\x00absent"); ok {
		return fmt.Errorf("EntityByName resolved an absent name")
	}
	if !reflect.DeepEqual(got.Schema(), want.Schema()) {
		return fmt.Errorf("schemas differ")
	}
	for i := 0; i < want.NumEdges(); i++ {
		if g, w := got.Edge(graph.EdgeID(i)), want.Edge(graph.EdgeID(i)); g != w {
			return fmt.Errorf("edge %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// sameRuns reports the first difference between got's Runs, in each
// direction, and want's runs: the non-empty Neighbors, one per (entity,
// relationship type), in that order, runs[0] outgoing and runs[1]
// incoming, each capped at its length.
func sameRuns(got, want *graph.EntityGraph, runs [2]int) error {
	for dir, out := range []bool{true, false} {
		var err error
		n, last := 0, [2]int{-1, -1}
		got.Runs(out, func(e graph.EntityID, rel graph.RelTypeID, run []graph.EntityID) {
			k := [2]int{int(e), int(rel)}
			switch {
			case err != nil:
			case k[0] < last[0] || k[0] == last[0] && k[1] <= last[1]:
				err = fmt.Errorf("Runs(%v) yielded (%d, %d) after (%d, %d)", out, e, rel, last[0], last[1])
			case !slices.Equal(run, want.Neighbors(e, rel, out)) || len(run) == 0 || cap(run) != len(run):
				err = fmt.Errorf("Runs(%v) yielded (%d, %d) = %v (cap %d), want %v", out, e, rel, run, cap(run), want.Neighbors(e, rel, out))
			}
			n, last = n+1, k
		})
		if err != nil {
			return err
		}
		if n != runs[dir] {
			return fmt.Errorf("Runs(%v) yielded %d runs, want %d", out, n, runs[dir])
		}
	}
	return nil
}

// CheckNames compares g's name order with a sort of its entity names, and
// its name lookups with a map of the names: EntityByName must resolve
// every entity name, and the longest proper prefix, the empty prefix and
// a one-byte extension of each exactly when they are names themselves;
// TypeByName must resolve every type name and no absent one.
func CheckNames(g *graph.EntityGraph) error {
	byName := make([]graph.EntityID, g.NumEntities())
	ids := make(map[string]graph.EntityID, len(byName))
	for i := range byName {
		byName[i] = graph.EntityID(i)
		ids[g.EntityName(graph.EntityID(i))] = graph.EntityID(i)
	}
	sort.Slice(byName, func(i, j int) bool { return g.EntityName(byName[i]) < g.EntityName(byName[j]) })
	order := g.NameOrder()
	for r, e := range byName {
		if got := order.Rank(e); got != int32(r) {
			return fmt.Errorf("%q ranks %d, want %d", g.EntityName(e), got, r)
		}
	}
	for e := range byName {
		name := g.EntityName(graph.EntityID(e))
		for _, probe := range []string{name, name[:max(len(name)-1, 0)], "", name + "\x00"} {
			want, present := ids[probe]
			if got, ok := g.EntityByName(probe); ok != present || ok && got != want {
				return fmt.Errorf("EntityByName(%q) = %d, %v, want %d, %v", probe, got, ok, want, present)
			}
		}
	}
	for t := 0; t < g.NumTypes(); t++ {
		if got, ok := g.TypeByName(g.TypeName(graph.TypeID(t))); !ok || got != graph.TypeID(t) {
			return fmt.Errorf("TypeByName(%q) = %d, %v, want %d", g.TypeName(graph.TypeID(t)), got, ok, t)
		}
	}
	if _, ok := g.TypeByName("\x00absent"); ok {
		return fmt.Errorf("TypeByName resolved an absent name")
	}
	return nil
}

// CheckSchema compares g's schema graph with graph.NewSchema of its type
// names and relationship types.
func CheckSchema(g *graph.EntityGraph) error {
	names := make([]string, g.NumTypes())
	for i := range names {
		names[i] = g.TypeName(graph.TypeID(i))
	}
	rels := make([]graph.RelType, g.NumRelTypes())
	for i := range rels {
		rels[i] = g.RelType(graph.RelTypeID(i))
	}
	want, err := graph.NewSchema(names, rels)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(g.Schema(), want) {
		return fmt.Errorf("the schema differs from NewSchema of the graph's types")
	}
	return nil
}
