package graph

import (
	"slices"
	"sort"
	"strings"
)

// NameOrder ranks a graph's entities in byte-wise name order, the order
// sort.Strings gives their names: Rank(e) < Rank(f) exactly when e's name
// sorts before f's. Entity names are unique, so no two ranks tie and the
// ranks of |Vd| entities are 0 … |Vd|-1. A NameOrder is immutable and
// shared.
type NameOrder struct {
	rank []int32 // per entity
}

// Rank returns e's position in name order.
func (o *NameOrder) Rank(e EntityID) int32 { return o.rank[e] }

// NameOrder returns g's name order. The graph is immutable, so the order
// is derived once, on first use, as Schema is, and every call returns the
// same shared order. Deriving it sorts every entity name, so nothing
// builds it before a reader needs it: not Assemble, not a snapshot load.
// A live graph's snapshots inherit it instead (InheritNameOrder).
func (g *EntityGraph) NameOrder() *NameOrder {
	if o := g.names.Load(); o != nil {
		return o
	}
	g.namesOnce.Do(func() {
		byName := make([]EntityID, len(g.entities))
		for i := range byName {
			byName[i] = EntityID(i)
		}
		slices.SortFunc(byName, func(a, b EntityID) int {
			return strings.Compare(g.entities[a].Name, g.entities[b].Name)
		})
		rank := make([]int32, len(byName))
		for r, e := range byName {
			rank[e] = int32(r)
		}
		g.names.CompareAndSwap(nil, &NameOrder{rank: rank})
	})
	return g.names.Load()
}

// HasNameOrder reports whether g's name order exists yet, derived or
// inherited, without deriving it.
func (g *EntityGraph) HasNameOrder() bool { return g.names.Load() != nil }

// InheritNameOrder gives g, before any reader sees it, the name order of
// prev extended by g's later entities, when prev has an order; otherwise
// g's order stays lazy. It is for successive snapshots of one live graph,
// whose entity ids are append-only: g's first prev.NumEntities() entities
// must be prev's, with the same names. A snapshot that adds no entity
// shares prev's order. Otherwise only the new names are sorted; each finds
// its place among the old ones by binary search, and the merge costs
// O(|Vd|) integer work. g keeps the resulting order, never prev.
func (g *EntityGraph) InheritNameOrder(prev *EntityGraph) {
	o := prev.names.Load()
	if o == nil || len(o.rank) > len(g.entities) {
		return
	}
	old := len(o.rank)
	if old == len(g.entities) {
		g.names.CompareAndSwap(nil, o)
		return
	}
	byName := make([]EntityID, old)
	for e, r := range o.rank {
		byName[r] = EntityID(e)
	}
	fresh := make([]EntityID, len(g.entities)-old)
	for i := range fresh {
		fresh[i] = EntityID(old + i)
	}
	name := func(e EntityID) string { return g.entities[e].Name }
	slices.SortFunc(fresh, func(a, b EntityID) int { return strings.Compare(name(a), name(b)) })

	// Old entities keep their relative order and move up by the number of
	// new names before them; the k-th new name lands after the old names
	// below it and the k new names before it.
	rank := make([]int32, len(g.entities))
	next := 0 // the first old position not yet placed
	for k, e := range fresh {
		p := next + sort.Search(old-next, func(i int) bool { return name(byName[next+i]) > name(e) })
		for ; next < p; next++ {
			rank[byName[next]] = int32(next + k)
		}
		rank[e] = int32(p + k)
	}
	for ; next < old; next++ {
		rank[byName[next]] = int32(next + len(fresh))
	}
	g.names.CompareAndSwap(nil, &NameOrder{rank: rank})
}
