package core

// Tuple materialization. A preview table conceptually has one tuple per
// entity of its key type (Definition 1); for display the paper "shows a few
// randomly sampled tuples in each preview table", leaving representative
// selection to future work. Both samplers are provided here: the paper's
// random sampling, and a coverage-greedy representative selection
// implementing that future-work item.

import (
	"math/rand"
	"sort"

	"github.com/uta-db/previewtables/internal/graph"
)

// Tuple is one materialized row of a preview table: the key entity and,
// aligned with the table's NonKeys, the (possibly empty, possibly
// multi-valued) sets of related entities.
type Tuple struct {
	Key graph.EntityID
	// Values holds graph.Neighbors results: read-only views of graph
	// memory, shared by every tuple of every table of the graph, which
	// the root package's SampleTuples hands to library callers as they
	// are. Each is in byte-wise name order, the order the renderers show
	// it in without copying it. Copy a value set before changing it.
	Values [][]graph.EntityID
}

// Materialize builds the tuple for entity e in table t.
func Materialize(g *graph.EntityGraph, t *Table, e graph.EntityID) Tuple {
	tu := Tuple{Key: e, Values: make([][]graph.EntityID, len(t.NonKeys))}
	for i, c := range t.NonKeys {
		tu.Values[i] = g.Neighbors(e, c.Inc.Rel, c.Inc.Outgoing)
	}
	return tu
}

// MaterializeAll builds every tuple of table t, in key-entity order. The
// tuple count equals the number of entities of the key type.
func MaterializeAll(g *graph.EntityGraph, t *Table) []Tuple {
	ents := g.EntitiesOfType(t.Key)
	tuples := make([]Tuple, len(ents))
	for i, e := range ents {
		tuples[i] = Materialize(g, t, e)
	}
	return tuples
}

// SampleRandom materializes up to count tuples of table t chosen uniformly
// at random without replacement — the paper's display strategy. The order
// of the sample follows key-entity order for stable rendering. It makes one
// rng draw per entity of the key type (SamplePositions).
func SampleRandom(g *graph.EntityGraph, t *Table, count int, rng *rand.Rand) []Tuple {
	return SampleAt(g, t, SamplePositions(rng, len(g.EntitiesOfType(t.Key)), count))
}

// SamplePositions returns the positions SampleRandom samples from a key
// type of n entities: rng.Perm(n)[:count], sorted, after the same n
// draws. When count >= n the whole type is the sample: it draws nothing
// and returns nil.
func SamplePositions(rng *rand.Rand, n, count int) []int {
	if count >= n {
		return nil
	}
	idx := permPrefix(rng, n, count)
	sort.Ints(idx)
	return idx
}

// SampleAt materializes the tuples of table t whose key entities sit at
// the given sorted positions of the key type's entities, as
// SamplePositions returns them: nil positions materialize every tuple.
// It only reads positions.
func SampleAt(g *graph.EntityGraph, t *Table, positions []int) []Tuple {
	if positions == nil {
		return MaterializeAll(g, t)
	}
	ents := g.EntitiesOfType(t.Key)
	tuples := make([]Tuple, len(positions))
	for i, j := range positions {
		tuples[i] = Materialize(g, t, ents[j])
	}
	return tuples
}

// permPrefix returns rng.Perm(n)[:count] without materializing the other
// n-count slots. It runs Perm's inside-out shuffle with the same Intn
// draws, so the result and the rng's final state are exactly Perm's (Go 1
// keeps Perm's output stable), but it stores only the prefix: a value
// written at or past slot count only ever moves to a later slot, never
// back into the prefix, so those slots need not exist.
func permPrefix(rng *rand.Rand, n, count int) []int {
	m := make([]int, count)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < count {
			m[i] = m[j]
			m[j] = i
		} else if j < count {
			m[j] = i
		}
	}
	return m
}

// nonEmptyCells counts the non-empty non-key values of a tuple.
func nonEmptyCells(tu Tuple) int {
	var n int
	for _, v := range tu.Values {
		if len(v) > 0 {
			n++
		}
	}
	return n
}

// SampleRepresentative materializes up to count tuples chosen greedily to
// showcase the table (future work item 2 of Sec. 8): each pick maximizes
// the number of attribute values not yet exhibited by earlier picks,
// breaking ties toward tuples with more non-empty cells and then toward
// earlier entities for determinism. The result is in key-entity order.
func SampleRepresentative(g *graph.EntityGraph, t *Table, count int) []Tuple {
	all := MaterializeAll(g, t)
	if count >= len(all) {
		return all
	}
	type seenKey struct {
		attr int
		ent  graph.EntityID
	}
	seen := make(map[seenKey]bool)
	chosen := make([]bool, len(all))
	order := make([]int, 0, count)
	for len(order) < count {
		best, bestNovel, bestCells := -1, -1, -1
		for i := range all {
			if chosen[i] {
				continue
			}
			var novel int
			for a, vals := range all[i].Values {
				for _, v := range vals {
					if !seen[seenKey{a, v}] {
						novel++
					}
				}
			}
			cells := nonEmptyCells(all[i])
			if novel > bestNovel || (novel == bestNovel && cells > bestCells) {
				best, bestNovel, bestCells = i, novel, cells
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		order = append(order, best)
		for a, vals := range all[best].Values {
			for _, v := range vals {
				seen[seenKey{a, v}] = true
			}
		}
	}
	sort.Ints(order)
	tuples := make([]Tuple, len(order))
	for i, j := range order {
		tuples[i] = all[j]
	}
	return tuples
}
