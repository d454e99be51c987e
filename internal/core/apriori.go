package core

// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds all k-subsets of entity types whose pairwise distances
// satisfy the constraint — equivalently, all k-cliques of the "compatibility
// graph" whose vertices are entity types and whose edges join pairs within
// distance d (tight) or at least d apart (diverse). Candidates are grown
// level-wise à la Apriori frequent-itemset mining [1]: two (i−1)-subsets
// sharing their first i−2 elements merge into an i-subset, and only the one
// new pair needs a distance check (the pairwise constraint is downward
// closed, so both parents being valid covers every other pair).
//
// Step 2 assembles the preview of each surviving k-subset per Theorem 3
// (ComputePreview) and returns the best.
//
// Candidate levels are stored flat (one []int32 with a fixed stride) rather
// than as a slice of slices: the d-sweep experiments of Fig. 9 generate
// millions of candidates at loose distance constraints, and per-candidate
// slice headers would triple the memory bill.

import (
	"runtime"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// Apriori solves optimal tight/diverse preview discovery on one worker.
// In Concise mode (no distance constraint) every pair is compatible,
// making it an exhaustive — and slower — equivalent of BruteForce; it is
// permitted for testing but DynamicProgramming should be preferred.
func (d *Discoverer) Apriori(c Constraint) (Preview, error) {
	p, _, err := d.apriori(c, 1)
	return p, err
}

// AprioriParallel is Apriori on workers goroutines (NumCPU when workers
// <= 0). It returns exactly the preview (and stats) Apriori returns,
// including ErrSearchBudget under exactly the same candidate volumes.
func (d *Discoverer) AprioriParallel(c Constraint, workers int) (Preview, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p, _, err := d.apriori(c, workers)
	return p, err
}

// apriori is the Apriori search at any worker count. Every stage — each
// level-wise join, starting from the level of single types, and the final
// candidate scoring — partitions its input into contiguous spans
// (stageSpans), with span outputs concatenated in span order so each
// level's flat layout is the same at any worker count (see parallel.go).
//
// Alongside the optimal preview it returns the runner-up score: the
// maximum preview score over every feasible k-subset other than the
// winner (-Inf when the winner is the only feasible subset). The
// runner-up is what the incremental Maintained state needs — an upper
// bound on how well any other subset scored — and, as a max over a fixed
// set, it too is the same at any worker count.
func (d *Discoverer) apriori(c Constraint, workers int) (Preview, float64, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, 0, err
	}
	if c.Mode != Concise {
		d.Distances() // materialize once, not under every worker's first query
	}

	// Level i holds all valid i-subsets as indexes into types, flattened
	// with stride i, lexicographically sorted by construction. Joining
	// level 1 yields exactly the compatible pairs.
	var stats SearchStats
	budget := newBudgetCounter(c.MaxCandidates)
	level := make([]int32, len(types))
	for i := range level {
		level[i] = int32(i)
	}
	stride := 1
	for ; stride < c.K && len(level) > 0; stride++ {
		if level, err = d.joinLevel(c, types, level, stride, workers, budget); err != nil {
			return Preview{}, 0, err
		}
		stats.CandidatesGenerated += len(level) / (stride + 1)
	}
	if len(level) == 0 {
		return Preview{}, 0, ErrNoPreview
	}

	// Score the surviving k-subsets: per-span top2s, merged in span order.
	spans := stageSpans(len(level)/stride, workers)
	tops := make([]top2, len(spans))
	par.ForEach(workers, len(spans), func(si int) {
		tops[si] = d.scoreSpan(c, types, level, stride, spans[si])
	})
	var win top2
	for i := range tops {
		win.merge(&tops[i])
	}
	p, err := d.winner(&win, c.N, stats)
	return p, win.second, err
}

// scoreSpan scores the k-subsets of one span of the final level.
func (d *Discoverer) scoreSpan(c Constraint, types []graph.TypeID, level []int32, stride int, s par.Span) top2 {
	var best top2
	keys := make([]graph.TypeID, stride)
	take := make([]int, stride)
	for cand := s.Lo; cand < s.Hi; cand++ {
		for i := range keys {
			keys[i] = types[level[cand*stride+i]]
		}
		best.offer(keys, d.previewScore(keys, c.N, take))
	}
	return best
}

// joinLevel merges a flat level of (size-1)-subsets into the flat level of
// size-subsets. The candidate blocks are partitioned across workers, and
// span outputs concatenate in span order.
func (d *Discoverer) joinLevel(c Constraint, types []graph.TypeID, level []int32, stride, workers int, budget *budgetCounter) ([]int32, error) {
	spans := stageSpans(len(level)/stride, workers)
	parts := make([][]int32, len(spans))
	par.ForEach(workers, len(spans), func(si int) {
		parts[si] = d.joinSpan(c, types, level, stride, spans[si], budget)
	})
	if !budget.ok() {
		return nil, ErrSearchBudget
	}
	return concatInt32(parts), nil
}

// joinSpan joins each candidate of one span with every later candidate of
// its block. Blocks sharing a prefix are contiguous because levels are
// generated in lexicographic order; within a block only the new
// last-element pair needs a distance check. Each block takes its produced
// candidates from the shared budget; once the budget is exceeded the
// output is partial, and the search errors.
func (d *Discoverer) joinSpan(c Constraint, types []graph.TypeID, level []int32, stride int, s par.Span, budget *budgetCounter) []int32 {
	var out []int32
	nCands := len(level) / stride
	for a := s.Lo; a < s.Hi && budget.ok(); a++ {
		offA := a * stride
		block := len(out)
		for b := a + 1; b < nCands; b++ {
			offB := b * stride
			if !samePrefix(level[offA:offA+stride], level[offB:offB+stride]) {
				break
			}
			ta := types[level[offA+stride-1]]
			tb := types[level[offB+stride-1]]
			if !d.distOK(c, ta, tb) {
				continue
			}
			out = append(out, level[offA:offA+stride]...)
			out = append(out, level[offB+stride-1])
		}
		if !budget.take((len(out) - block) / (stride + 1)) {
			break
		}
	}
	return out
}

// samePrefix reports whether a and b agree on all but their last element.
func samePrefix(a, b []int32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CliqueDFS solves the same problem as Apriori with a depth-first k-clique
// backtracking enumeration instead of level-wise candidate generation. The
// paper (citing Kose et al. [11]) argues the Apriori style beats classic
// clique enumeration; this implementation is the comparison point for that
// ablation (BenchmarkAblationCliqueEnumeration).
func (d *Discoverer) CliqueDFS(c Constraint) (Preview, error) {
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, err
	}
	best, generated, stopped := d.cliqueDFS(c, types)
	if stopped {
		return Preview{}, ErrSearchBudget
	}
	return d.winner(&best, c.N, SearchStats{CandidatesGenerated: generated})
}

// AnytimeBest is the anytime variant of discovery: it runs the depth-first
// clique enumeration under c.MaxCandidates and, where CliqueDFS reports
// ErrSearchBudget, instead returns the best preview found so far. The
// boolean reports whether enumeration completed within the budget (the
// result is then exact, equal to what Discover returns). Concise mode has
// no distance constraint and dynamic programming is already cheap and
// exact, so it is answered exactly regardless of budget.
//
// The enumeration is sequential and visits subsets in a fixed
// lexicographic order, so the partial answer for a given (scores, budget)
// pair is deterministic — a leader and a caught-up follower return the
// same bytes, which the response cache relies on.
func (d *Discoverer) AnytimeBest(c Constraint) (Preview, bool, error) {
	if err := c.Validate(); err != nil {
		return Preview{}, false, err
	}
	if c.Mode == Concise {
		p, err := d.DynamicProgramming(c)
		return p, true, err
	}
	types, err := d.searchTypes(c)
	if err != nil {
		return Preview{}, true, err
	}
	best, generated, stopped := d.cliqueDFS(c, types)
	if stopped && best.scored == 0 {
		return Preview{}, false, ErrSearchBudget
	}
	p, err := d.winner(&best, c.N, SearchStats{CandidatesGenerated: generated})
	return p, !stopped, err
}

// cliqueDFS is the depth-first k-clique enumeration behind CliqueDFS and
// AnytimeBest. It extends a partial subset, in lexicographic order, only
// by types compatible with every member, and scores each complete one. It
// stops before generating a candidate past c.MaxCandidates (when
// positive), and returns the best subset scored so far, the candidates
// generated, and whether the budget stopped it.
func (d *Discoverer) cliqueDFS(c Constraint, types []graph.TypeID) (best top2, generated int, stopped bool) {
	subset := make([]graph.TypeID, c.K)
	take := make([]int, c.K)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == c.K {
			best.offer(subset, d.previewScore(subset, c.N, take))
			return
		}
	next:
		for i := start; i <= len(types)-(c.K-pos) && !stopped; i++ {
			t := types[i]
			for _, s := range subset[:pos] {
				if !d.distOK(c, s, t) {
					continue next
				}
			}
			if c.MaxCandidates > 0 && generated >= c.MaxCandidates {
				stopped = true
				return
			}
			generated++
			subset[pos] = t
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return best, generated, stopped
}
