package core

// Worker counts. The k-subset enumerations behind every discovery mode
// are embarrassingly parallel — the subset space partitions into
// contiguous ranges, and a Discoverer is read-only during search, so
// workers share it freely. Each search has one body that runs at any
// worker count: brute force (Alg. 1) partitions by first element, Apriori
// (Alg. 3) partitions every level-wise stage into spans, and both run
// their partitions through par.ForEach, which is a plain loop at one
// worker. The result does not depend on the worker count:
//
//   - Candidate order is preserved: each stage's spans are concatenated in
//     span order, reproducing the lexicographic level layout exactly, so
//     downstream stages see the same input however the stage was split.
//   - Per-partition bests merge deterministically (top2): equal scores
//     break toward the lexicographically smallest key subset (lessKeys),
//     so which partition happened to score a subset never shows through.
//   - The Constraint.MaxCandidates budget is enforced through a shared
//     atomic counter: the search errors with ErrSearchBudget exactly when
//     the total candidate volume exceeds the budget. Workers may
//     transiently overshoot the counter before observing the abort flag
//     (by at most one join block per worker — the first failed take stops
//     a worker's stage), but the overshoot is never published: success
//     and failure, and the preview returned on success, are identical at
//     any worker count.
//
// Running on more than one worker is an engineering extension beyond the
// paper (whose C++ implementation was single-threaded); it makes
// ground-truth validation of the faster algorithms affordable on larger
// schemas and lets one server answer distance-constrained previews with
// all its cores.

import (
	"math"
	"sync/atomic"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// lessKeys orders key subsets lexicographically.
func lessKeys(a, b []graph.TypeID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// top2 tracks the best key subset a search has scored and the runner-up
// score: the best score of every other subset scored (-Inf when there is
// none). Ties break toward the lexicographically smallest subset, so the
// winner and the runner-up are pure functions of the set of subsets
// offered, whatever their order or partition.
type top2 struct {
	keys   []graph.TypeID
	score  float64
	second float64
	scored int // subsets offered; the winner is valid when positive
}

// offer considers one scored subset. keys is copied, so callers may reuse
// it as scratch.
//
// Invariant: second is the max score over offered subsets other than the
// current winner. When a new subset displaces the winner, the old winner
// (the max of everything before it) becomes the runner-up; otherwise the
// new subset competes for runner-up directly.
func (t *top2) offer(keys []graph.TypeID, score float64) {
	t.scored++
	switch {
	case t.scored == 1:
		t.score, t.second = score, math.Inf(-1)
		t.keys = append(t.keys[:0], keys...)
	case score > t.score || (score == t.score && lessKeys(keys, t.keys)):
		t.second, t.score = t.score, score
		t.keys = append(t.keys[:0], keys...)
	case score > t.second:
		t.second = score
	}
}

// merge folds another partition's top2 into t: o's winner competes as one
// offer, and o's runner-up, a subset that lost to o's winner, can only
// compete for runner-up.
func (t *top2) merge(o *top2) {
	if o.scored == 0 {
		return
	}
	scored := t.scored + o.scored
	t.offer(o.keys, o.score)
	t.scored = scored
	if o.second > t.second {
		t.second = o.second
	}
}

// spanFactor is how many spans each stage plans per worker. More spans
// than workers keeps the pull-based pool load-balanced when candidate
// blocks are skewed; the partition never affects results, only balance.
const spanFactor = 8

// stageSpans plans one stage over n inputs: a single span at one worker,
// so the stage is one plain loop whose output needs no concatenation, and
// spanFactor spans per worker otherwise.
func stageSpans(n, workers int) []par.Span {
	if workers <= 1 {
		return par.Spans(n, 1)
	}
	return par.Spans(n, workers*spanFactor)
}

// budgetCounter enforces Constraint.MaxCandidates across workers: every
// join block takes one ticket per candidate it produced from a shared
// atomic counter, and the first take past the limit raises the exceeded
// flag that workers poll between blocks. The counter may transiently run
// past the limit (by at most one block, fewer candidates than there are
// types, per worker), but the overshoot is never published — the
// counter only grows, so the search's outcome depends only on whether the
// total candidate volume exceeds the budget.
type budgetCounter struct {
	limit    int64 // <= 0: unlimited
	produced atomic.Int64
	exceeded atomic.Bool
}

func newBudgetCounter(limit int) *budgetCounter {
	return &budgetCounter{limit: int64(limit)}
}

// take accounts n produced candidates, reporting false once the budget is
// exhausted. Taking per block rather than per candidate keeps the atomic
// add off the innermost join loop, where even an uncontended one costs a
// measurable share of a one-worker search. Unlimited budgets skip the
// shared counter entirely: with no limit it decides nothing (stats come
// from the level lengths).
func (b *budgetCounter) take(n int) bool {
	if b.limit <= 0 || n == 0 {
		return true
	}
	if b.produced.Add(int64(n)) > b.limit {
		b.exceeded.Store(true)
		return false
	}
	return true
}

// ok reports whether the budget still holds.
func (b *budgetCounter) ok() bool { return !b.exceeded.Load() }

// concatInt32 concatenates span outputs in span order, reproducing the
// lexicographic enumeration order exactly. A single part is returned as
// is.
func concatInt32(parts [][]int32) []int32 {
	if len(parts) == 1 {
		return parts[0]
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
