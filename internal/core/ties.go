package core

// Tie enumeration. Eq. 3's arg max "may return a set of optimal previews
// due to ties in scores"; Algs. 1–3 return one representative, and the
// paper notes that finding all optima "requires simple extension to deal
// with ties". This file is that extension: an exhaustive search that keeps
// every key-attribute subset achieving the maximum score.
//
// Ties are genuinely common — the paper's own Sec. 4 example (Fig. 1,
// coverage/coverage, k=2, n=6) has two optimal previews scoring 84 — so a
// downstream application that must present "the" preview deterministically
// can enumerate the tied set and apply its own policy.

import (
	"math"
	"sort"

	"github.com/uta-db/previewtables/internal/graph"
)

// AllOptimal enumerates every optimal preview in the constrained space, in
// deterministic (lexicographic key-subset) order. Two previews are tied
// when their scores agree within a relative tolerance of 1e-12. The search
// is brute force and therefore exponential in c.K; use it on small schemas
// or small k.
func (d *Discoverer) AllOptimal(c Constraint) ([]Preview, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return nil, err
	}

	var (
		bestScore float64
		bestKeys  [][]graph.TypeID
		found     bool
		stats     SearchStats
	)
	take := make([]int, c.K)
	tol := func() float64 { return 1e-12 * (1 + math.Abs(bestScore)) }
	for first := 0; first <= len(types)-c.K; first++ {
		d.eachSubset(c, types, first, func(subset []graph.TypeID) {
			stats.SubsetsScored++
			score := d.previewScore(subset, c.N, take)
			switch {
			case !found || score > bestScore+tol():
				bestScore = score
				bestKeys = bestKeys[:0]
				bestKeys = append(bestKeys, append([]graph.TypeID(nil), subset...))
				found = true
			case math.Abs(score-bestScore) <= tol():
				bestKeys = append(bestKeys, append([]graph.TypeID(nil), subset...))
			}
		})
	}

	if !found {
		return nil, ErrNoPreview
	}
	previews := make([]Preview, 0, len(bestKeys))
	for _, keys := range bestKeys {
		p, err := d.ComputePreview(keys, c.N)
		if err != nil {
			return nil, err
		}
		p.Stats = stats
		previews = append(previews, p)
	}
	// Note: distinct key subsets can still materialize previews with equal
	// scores but different tables; the deterministic order is by key ids.
	sort.SliceStable(previews, func(a, b int) bool {
		return lessKeys(previews[a].Keys(), previews[b].Keys())
	})
	return previews, nil
}
