package core

// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds all k-subsets of entity types whose pairwise distances
// satisfy the constraint — equivalently, all k-cliques of the "compatibility
// graph" whose vertices are entity types and whose edges join pairs within
// distance d (tight) or at least d apart (diverse). Candidates are grown
// Apriori-style, as in frequent-itemset mining [1]: two (i−1)-subsets
// sharing their first i−2 elements merge into an i-subset, and only the one
// new pair needs a distance check (the pairwise constraint is downward
// closed, so both parents being valid covers every other pair).
//
// Step 2 assembles the preview of each surviving k-subset per Theorem 3
// (ComputePreview) and returns the best.
//
// The join is computed, not stored. Each usable type gets one bitset row
// over the later types, set where the pair is compatible. The i-subsets
// that extend a valid (i−1)-subset P are then the AND of P's members' rows:
// a type c after P's last member belongs to the block exactly when every
// member is compatible with c, which is Alg. 3's rule of two valid parents
// plus one new compatible pair. So the candidates, and their count at every
// level, are Alg. 3's; the search visits them prefix block by prefix block,
// depth first, instead of level by level, and never holds a level in
// memory. Blocks of the last level are scored straight from the bits, with
// Theorem 3's greedy run once per prefix and each last table merged
// against its picks (picks.complete), unless a one-add bound puts the
// subset strictly below the runner-up (prefixSearch.score).

import (
	"math/bits"
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

// apriori is the Apriori search at any worker count. It splits the
// subsets by their first type, as brute force does: task a searches
// every subset whose smallest type is types[a], including the smaller
// candidates that start there and never reach k types, which Alg. 3
// generates and counts all the same (see parallel.go).
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
	words := (len(types) + 63) / 64
	rows := make([]uint64, len(types)*words)
	for a := range types {
		for b := a + 1; b < len(types); b++ {
			if d.distOK(c, types[a], types[b]) {
				rows[a*words+b/64] |= 1 << (b % 64)
			}
		}
	}

	// Each worker reuses one prefixSearch across the tasks it runs: a task
	// takes a free one or builds one, and returns it when done. At most
	// min(workers, tasks) tasks run at once, so that many prefixSearches
	// exist and returning one never blocks.
	budget := newBudgetCounter(c.MaxCandidates)
	free := make(chan *prefixSearch, min(par.Workers(workers), len(types)))
	par.ForEach(workers, len(types), func(a int) {
		var s *prefixSearch
		select {
		case s = <-free:
		default:
			s = &prefixSearch{d: d, c: c, types: types, rows: rows, words: words, budget: budget,
				keys: make([]graph.TypeID, c.K), blocks: make([]uint64, c.K*words)}
		}
		s.first(a)
		free <- s
	})
	close(free)
	var win top2
	var stats SearchStats
	for s := range free {
		win.merge(&s.best)
		stats.CandidatesGenerated += s.generated
	}
	if !budget.ok() {
		return Preview{}, 0, ErrSearchBudget
	}
	p, err := d.winner(&win, c.N, stats)
	return p, win.second, err
}

// prefixSearch is one worker's state in apriori: the prefix being
// extended, one join block per prefix length, Theorem 3's picks for the
// current (k−1)-prefix, and the best subsets and candidate count of the
// tasks the worker ran.
type prefixSearch struct {
	d      *Discoverer
	c      Constraint
	types  []graph.TypeID
	rows   []uint64 // row a is rows[a*words:(a+1)*words]
	words  int
	budget *budgetCounter

	keys      []graph.TypeID // the prefix, then the scored last type
	blocks    []uint64       // blocks[i*words:] is the join block of keys[:i+1]
	picks     picks
	best      top2
	generated int
}

// first runs task a: every candidate subset whose smallest type is
// types[a].
func (s *prefixSearch) first(a int) {
	if !s.budget.ok() {
		return
	}
	s.keys[0] = s.types[a]
	if s.c.K == 1 {
		block := s.blocks[:s.words]
		clear(block)
		block[a/64] = 1 << (a % 64)
		s.score(block)
		return
	}
	s.extend(1, s.rows[a*s.words:(a+1)*s.words])
}

// extend visits the prefix keys[:depth], whose join block holds the types
// that extend it to a candidate (depth+1)-subset. It takes those
// candidates from the budget and then scores them, when they complete a
// k-subset, or extends each in turn.
func (s *prefixSearch) extend(depth int, block []uint64) {
	n := 0
	for _, w := range block {
		n += bits.OnesCount64(w)
	}
	s.generated += n
	if n == 0 || !s.budget.take(n) {
		return
	}
	if depth == s.c.K-1 {
		s.score(block)
		return
	}
	next := s.blocks[depth*s.words : (depth+1)*s.words]
	for i, w := range block {
		for ; w != 0; w &= w - 1 {
			b := i*64 + bits.TrailingZeros64(w)
			s.keys[depth] = s.types[b]
			row := s.rows[b*s.words:]
			for j := range next {
				next[j] = block[j] & row[j]
			}
			s.extend(depth+1, next)
			if !s.budget.ok() {
				return
			}
		}
	}
}

// score offers every k-subset that completes the prefix keys[:k-1] with a
// type of block, except those bounded strictly below the runner-up.
//
// Every product S(τ)·Sτ(γ) is non-negative, so each table row and the
// prefix's pick sums are non-decreasing, and complete's score, a pick sum
// plus a table entry inside those ranges, is at most bound: the prefix with
// all its picks plus t's table at the most candidates the budget lets it
// take. No bound is below best.second before the worker's second offer
// (it is 0, then -Inf), and from then on best.second only rises, so a
// subset whose bound is strictly below it scores strictly below the final
// runner-up, and can be neither the winner nor the runner-up whatever the
// tie-break; with <= a worker that met a tied winner first would skip a
// lexicographically smaller tie. A skipped subset still counts as scored,
// so SearchStats do not move.
func (s *prefixSearch) score(block []uint64) {
	last := s.c.K - 1
	s.picks.reset(s.d, s.keys[:last], s.c.N-s.c.K)
	top := s.picks.sum[len(s.picks.sum)-1]
	for i, w := range block {
		for ; w != 0; w &= w - 1 {
			t := s.types[i*64+bits.TrailingZeros64(w)]
			table := s.d.table[t]
			bound := top + table[min(1+s.picks.extra, len(table)-1)]
			if bound < s.best.second {
				s.best.scored++
				continue
			}
			score, _, _ := s.picks.complete(s.d, t)
			s.keys[last] = t
			s.best.offer(s.keys, score)
		}
	}
}

// CliqueDFS solves the same problem as Apriori with a depth-first k-clique
// backtracking enumeration, which checks each extension against every
// member, instead of Alg. 3's candidate generation. The
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
	var scratch picks
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == c.K {
			best.offer(subset, d.previewScore(subset, c.N, &scratch))
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
