package core

// Brute-force optimal preview discovery (Alg. 1). Enumerates every k-subset
// of usable entity types, filters complete subsets by the pairwise distance
// constraint when in Tight/Diverse mode, assembles each surviving preview
// per Theorem 3 and keeps the best.
//
// Faithful to the paper, the distance check happens on complete k-subsets
// ("by performing distance check on every pair of preview tables in each
// k-subset of entity types") — no early pruning. That is exactly what makes
// the Apriori-style algorithm of Alg. 3 outperform it by orders of
// magnitude in Fig. 9; an early-pruning brute force would blur that
// comparison. It serves as ground truth in tests and as the baseline of the
// efficiency experiments (Figs. 8–9).

import (
	"runtime"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// BruteForce solves the optimal preview discovery problem by exhaustive
// enumeration on one worker. It supports all three modes. Returns
// ErrNoPreview when the constrained space is empty.
func (d *Discoverer) BruteForce(c Constraint) (Preview, error) {
	return d.bruteForce(c, 1)
}

// BruteForceParallel is BruteForce on workers goroutines (NumCPU when
// workers <= 0). It returns exactly the preview (and stats) BruteForce
// returns: when several subsets tie, the lexicographically smallest tied
// key subset, so results do not depend on scheduling.
func (d *Discoverer) BruteForceParallel(c Constraint, workers int) (Preview, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return d.bruteForce(c, workers)
}

// bruteForce is the brute-force search at any worker count, partitioned
// by first element: task i enumerates the subsets whose smallest type is
// types[i], and the per-task bests merge in element order.
func (d *Discoverer) bruteForce(c Constraint, workers int) (Preview, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, err
	}
	tops := make([]top2, len(types)-c.K+1)
	par.ForEach(workers, len(tops), func(i int) {
		take := make([]int, c.K) // allocation-free scoring scratch
		d.eachSubset(c, types, i, func(subset []graph.TypeID) {
			tops[i].offer(subset, d.previewScore(subset, c.N, take))
		})
	})
	var best top2
	for i := range tops {
		best.merge(&tops[i])
	}
	return d.winner(&best, c.N, SearchStats{})
}

// eachSubset calls visit, in lexicographic order, with every k-subset of
// types whose first element is types[first] and, in Tight/Diverse mode,
// whose every pair satisfies the distance constraint. visit must not
// retain the subset it is passed.
func (d *Discoverer) eachSubset(c Constraint, types []graph.TypeID, first int, visit func([]graph.TypeID)) {
	subset := make([]graph.TypeID, c.K)
	subset[0] = types[first]
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == c.K {
			if c.Mode == Concise || d.pairwiseOK(c, subset) {
				visit(subset)
			}
			return
		}
		for i := start; i <= len(types)-(c.K-pos); i++ {
			subset[pos] = types[i]
			rec(pos+1, i+1)
		}
	}
	rec(1, first+1)
}

// pairwiseOK checks the distance constraint on every pair of the subset.
func (d *Discoverer) pairwiseOK(c Constraint, subset []graph.TypeID) bool {
	for i := 0; i < len(subset); i++ {
		for j := i + 1; j < len(subset); j++ {
			if !d.distOK(c, subset[i], subset[j]) {
				return false
			}
		}
	}
	return true
}
