package graph

import (
	"slices"
	"sort"
	"strings"
)

// NameOrder ranks a graph's entities in byte-wise name order, the order
// sort.Strings gives their names: Rank(e) < Rank(f) exactly when e's name
// sorts before f's. Entity names are unique, so no two ranks tie and the
// ranks of |Vd| entities are 0 … |Vd|-1. A graph makes its order when it
// is made: Assemble sorts the names, and Derive merges a batch's new names
// into its predecessor's order. Every neighbor run of the graph is in this
// order. A NameOrder is immutable and shared.
type NameOrder struct {
	rank   []int32    // per entity
	byRank []EntityID // per rank: the inverse of rank
}

// Rank returns e's position in name order.
func (o *NameOrder) Rank(e EntityID) int32 { return o.rank[e] }

// NameOrder returns g's name order. Every call returns the same shared
// order, made with the graph.
func (g *EntityGraph) NameOrder() *NameOrder { return &g.names }

// sortByName sorts ids by the names ents gives them.
func sortByName(ents []Entity, ids []EntityID) {
	slices.SortFunc(ids, func(a, b EntityID) int { return strings.Compare(ents[a].Name, ents[b].Name) })
}

// orderOf returns the order whose entity ids by rank are byRank.
func orderOf(byRank []EntityID) NameOrder {
	rank := make([]int32, len(byRank))
	for r, e := range byRank {
		rank[e] = int32(r)
	}
	return NameOrder{rank: rank, byRank: byRank}
}

// extend returns o over ents, whose first len(o.rank) entities are the ones
// o ranks, with the same names: the successor of a live graph's order,
// whose entity ids are append-only. With no new entity it is o itself.
// Otherwise only the new names are sorted; each finds its place among the
// old ones by binary search, the old ids between move in block copies, and
// the ranks cost O(|Vd|) integer work.
func (o NameOrder) extend(ents []Entity) NameOrder {
	old := len(o.byRank)
	if old == len(ents) {
		return o
	}
	fresh := make([]EntityID, len(ents)-old)
	for i := range fresh {
		fresh[i] = EntityID(old + i)
	}
	sortByName(ents, fresh)
	byRank := make([]EntityID, 0, len(ents))
	next := 0 // the first old rank not yet placed
	for _, e := range fresh {
		name := ents[e].Name
		p := next + sort.Search(old-next, func(i int) bool { return ents[o.byRank[next+i]].Name > name })
		byRank = append(append(byRank, o.byRank[next:p]...), e)
		next = p
	}
	return orderOf(append(byRank, o.byRank[next:]...))
}
