package graph

import (
	"fmt"
	"math"
	"slices"

	"github.com/uta-db/previewtables/internal/par"
)

// adjacency is one direction of an entity graph's adjacency, in compressed
// sparse row form. The entries of entity e are start[e] up to start[e+1],
// sorted by relationship type; the entries of one (entity, relationship
// type) run hold the distinct other endpoints of e's edges of that type,
// in the graph's name order, whatever order the edges came in.
type adjacency struct {
	start []int32     // one offset per entity, plus the end
	rel   []RelTypeID // per entry
	nbr   []EntityID  // per entry
}

// run returns the (e, rel) run: a shared view, capped at its length.
func (a *adjacency) run(e EntityID, rel RelTypeID) []EntityID {
	lo, hi := int(a.start[e]), int(a.start[e+1])
	rels := a.rel[lo:hi]
	i, found := slices.BinarySearch(rels, rel)
	if !found {
		return nil
	}
	n, _ := slices.BinarySearch(rels[i:], rel+1)
	lo += i
	return a.nbr[lo : lo+n : lo+n]
}

// Assemble makes an entity graph from its parts, its name order and its
// schema graph included; it is the one place an EntityGraph is made from
// scratch (Derive extends one). Every neighbor run is in the name order,
// so the order of edges sets only the edge list. The parts must be
// in canonical form, the form Builder.Build produces and storage snapshots
// record:
//
//   - type names are unique;
//   - every relationship type's endpoint types exist, and no two share
//     a (name, from, to) key;
//   - entity names are unique;
//   - every entity's type list is non-empty and strictly ascending;
//   - every edge's endpoints and relationship type exist, and each
//     endpoint bears its relationship type's endpoint type.
//
// Assemble reports the first violation as an error; any other violation
// comes before a duplicate entity name. It takes ownership of its
// arguments: it sets each relationship type's EdgeCount from edges, and
// the graph keeps the slices, so the caller must not touch them
// afterwards.
//
// The name sort reads only the names, and nothing else Assemble checks or
// builds before the layout's transposes needs a rank, so the sort runs as
// one task and the rest as the other, side by side where there is a
// second core. Neither task writes what the other reads, and both end
// before Assemble goes on or returns, so the graph does not depend on how
// they were scheduled.
func Assemble(types []string, rels []RelType, entities []Entity, edges []Edge) (*EntityGraph, error) {
	if len(entities) >= math.MaxInt32 || len(edges) >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d entities, %d edges exceed the int32 layout", len(entities), len(edges))
	}
	g := &EntityGraph{
		types:    make([]EntityType, len(types)),
		relTypes: rels,
		entities: entities,
		edges:    edges,
		numEdges: len(edges),
	}
	byRank := make([]EntityID, len(entities))
	var bySource adjacency
	var err error
	par.ForEach(par.Auto(), 2, func(task int) {
		if task == 0 {
			for i := range byRank {
				byRank[i] = EntityID(i)
			}
			sortByName(entities, byRank)
			return
		}
		bySource, err = g.checkAndScatter(types)
	})
	if err != nil {
		return nil, err
	}
	// A duplicate name sorts next to its twin.
	for r := 1; r < len(byRank); r++ {
		if name := entities[byRank[r]].Name; name == entities[byRank[r-1]].Name {
			return nil, fmt.Errorf("graph: duplicate entity %q", name)
		}
	}
	g.names = orderOf(byRank)
	scratch := make([]EntityID, 2*len(bySource.nbr))
	g.in = transpose(bySource, byRank, len(rels), scratch)
	g.out = transpose(g.in, byRank, len(rels), scratch)
	g.schema = schemaOf(g.types, rels)
	return g, nil
}

// checkAndScatter is the part of Assemble that needs no name order: it
// checks the canonical form but for entity names, sets the type names, the
// edge counts and the per-type entity lists, and lays the edges out under
// their sources (scatter).
func (g *EntityGraph) checkAndScatter(types []string) (adjacency, error) {
	rels, entities, edges := g.relTypes, g.entities, g.edges
	typeNames := make(map[string]struct{}, len(types))
	for i, name := range types {
		if typeNames[name] = struct{}{}; len(typeNames) != i+1 {
			return adjacency{}, fmt.Errorf("graph: duplicate type %q", name)
		}
		g.types[i].Name = name
	}
	relKeys := make(map[relKey]struct{}, len(rels))
	for i := range rels {
		r := &rels[i]
		if r.From < 0 || int(r.From) >= len(types) || r.To < 0 || int(r.To) >= len(types) {
			return adjacency{}, fmt.Errorf("graph: relationship type %q: endpoint type out of range", r.Name)
		}
		if relKeys[relKey{r.Name, r.From, r.To}] = struct{}{}; len(relKeys) != i+1 {
			return adjacency{}, fmt.Errorf("graph: duplicate relationship type %q(%s, %s)", r.Name, types[r.From], types[r.To])
		}
		r.EdgeCount = 0
	}
	typeCount := make([]int32, len(types)+1)
	// first holds each entity's first type, so the edge check reads no
	// entity record for an endpoint whose first type is the one required.
	first := make([]TypeID, len(entities))
	for i := range entities {
		ent := &entities[i]
		if len(ent.Types) == 0 {
			return adjacency{}, fmt.Errorf("graph: entity %q has no type", ent.Name)
		}
		first[i] = ent.Types[0]
		for j, t := range ent.Types {
			if t < 0 || int(t) >= len(types) {
				return adjacency{}, fmt.Errorf("graph: entity %q: type id %d out of range", ent.Name, t)
			}
			if j > 0 && ent.Types[j-1] >= t {
				return adjacency{}, fmt.Errorf("graph: entity %q: type list not strictly ascending", ent.Name)
			}
			typeCount[t+1]++
		}
	}
	for i, ed := range edges {
		if ed.From < 0 || int(ed.From) >= len(entities) || ed.To < 0 || int(ed.To) >= len(entities) {
			return adjacency{}, fmt.Errorf("graph: edge %d: endpoint out of range", i)
		}
		if ed.Rel < 0 || int(ed.Rel) >= len(rels) {
			return adjacency{}, fmt.Errorf("graph: edge %d: relationship type out of range", i)
		}
		rt := &rels[ed.Rel]
		if first[ed.From] != rt.From && !g.HasType(ed.From, rt.From) || first[ed.To] != rt.To && !g.HasType(ed.To, rt.To) {
			return adjacency{}, fmt.Errorf("graph: edge %d: an endpoint lacks the type relationship %q requires", i, rt.Name)
		}
		rt.EdgeCount++
	}

	// Per-type entity lists, ascending, cut from one slab.
	for t := range types {
		typeCount[t+1] += typeCount[t]
	}
	members := make([]EntityID, typeCount[len(types)])
	for t := range g.types {
		lo, hi := typeCount[t], typeCount[t+1]
		g.types[t].Entities = members[lo:lo:hi]
	}
	for i := range entities {
		for _, t := range entities[i].Types {
			g.types[t].Entities = append(g.types[t].Entities, EntityID(i))
		}
	}

	// Edge ids ordered by relationship type, stably, for the scatter.
	relStart := make([]int32, len(rels)+1)
	for i := range rels {
		relStart[i+1] = relStart[i] + int32(rels[i].EdgeCount)
	}
	byRel := make([]int32, len(edges))
	for i, ed := range edges {
		byRel[relStart[ed.Rel]] = int32(i)
		relStart[ed.Rel]++
	}
	return scatter(len(entities), edges, byRel), nil
}

// scatter lays the edges out under their sources, the one pass of the
// layout over every edge, parallel copies included. byRel orders the
// edges by relationship type, so a stable counting pass by source leaves
// each source's entries sorted by (relationship type, edge id); a last
// pass keeps the first entry of each target in its run. The result holds
// one entry per distinct triple, each run in the order of its targets'
// first edges; transpose puts runs in name order.
func scatter(n int, edges []Edge, byRel []int32) adjacency {
	// Counts land two slots up, so after the prefix sum start[e+1] is e's
	// offset; filling advances it to e's end, which is e+1's offset.
	start := make([]int32, n+2)
	for _, ed := range edges {
		start[ed.From+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	rel := make([]RelTypeID, len(edges))
	nbr := make([]EntityID, len(edges))
	for _, id := range byRel {
		ed := edges[id]
		p := start[ed.From+1]
		start[ed.From+1]++
		rel[p], nbr[p] = ed.Rel, ed.To
	}
	start = start[:n+1]

	// mark[v] == stamp once a run has kept v; every run takes a fresh stamp.
	mark := make([]uint32, n)
	var stamp uint32
	var w int32
	for e := 0; e < n; e++ {
		lo, hi := start[e], start[e+1]
		start[e] = w
		for i := lo; i < hi; {
			r := rel[i]
			stamp++
			for ; i < hi && rel[i] == r; i++ {
				if v := nbr[i]; mark[v] != stamp {
					mark[v] = stamp
					rel[w], nbr[w] = r, v
					w++
				}
			}
		}
	}
	start[n] = w
	return adjacency{start: start, rel: rel[:w], nbr: nbr[:w]}
}

// transpose returns the other direction of a: each entry (r, v) under u
// becomes (r, u) under v. It visits a's entities in name order (byRank)
// and places each entry stably, first by relationship type and then under
// v: two counting passes over a's entries, which hold one entry per
// distinct triple, and never over parallel copies. So the result's entries
// under each entity sort by relationship type, and each run holds its
// endpoints in name order, whatever order a's runs are in. The arrays it
// makes are exactly as long as a's; scratch holds two entities per entry.
func transpose(a adjacency, byRank []EntityID, nRels int, scratch []EntityID) adjacency {
	n, w := len(byRank), len(a.nbr)
	relPos := make([]int32, nRels)
	start := make([]int32, n+2) // counts two slots up, as in scatter
	for i, r := range a.rel {
		relPos[r]++
		start[a.nbr[i]+2]++
	}
	var sum int32
	for r, c := range relPos {
		relPos[r], sum = sum, sum+c
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}

	// By relationship type: bucket r ends at relPos[r] once filled.
	from, to := scratch[:w], scratch[w:2*w]
	for _, u := range byRank {
		for i := a.start[u]; i < a.start[u+1]; i++ {
			r := a.rel[i]
			p := relPos[r]
			relPos[r]++
			from[p], to[p] = u, a.nbr[i]
		}
	}
	// Under the other endpoint, relationship type by relationship type.
	rel := make([]RelTypeID, w)
	nbr := make([]EntityID, w)
	var p int32
	for r, end := range relPos {
		for ; p < end; p++ {
			v := to[p]
			q := start[v+1]
			start[v+1]++
			rel[q], nbr[q] = RelTypeID(r), from[p]
		}
	}
	return adjacency{start: start[:n+1], rel: rel, nbr: nbr}
}
