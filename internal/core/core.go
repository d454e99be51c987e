// Package core implements the paper's primary contribution: preview tables,
// previews, the optimal preview discovery problems of Sec. 4 (concise,
// tight, diverse), and the discovery algorithms of Sec. 5 (brute force,
// dynamic programming, Apriori-style candidate generation), plus the
// NP-hardness reductions of Sec. 4.1 in executable form.
//
// A Discoverer wraps a precomputed score.Set and a choice of scoring
// measures; its methods solve the optimization problems. All algorithms
// return previews with identical scores on the same inputs (the dynamic
// program and Apriori search are exact, not approximate); tests cross-check
// them against brute force.
package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
	"github.com/uta-db/previewtables/internal/score"
)

// Mode selects the preview space being searched (Definition 2).
type Mode int

const (
	// Concise searches Pk,n: k tables, at most n non-key attributes.
	Concise Mode = iota
	// Tight additionally requires every pair of tables within distance D.
	Tight
	// Diverse additionally requires every pair of tables at distance ≥ D.
	Diverse
)

// String names the mode as in the paper's user study.
func (m Mode) String() string {
	switch m {
	case Concise:
		return "Concise"
	case Tight:
		return "Tight"
	case Diverse:
		return "Diverse"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Constraint bundles the size constraint (k, n) and, for tight/diverse
// modes, the distance constraint d of Definition 2.
type Constraint struct {
	K    int  // number of preview tables (key attributes)
	N    int  // maximum total number of non-key attributes
	Mode Mode // preview space
	D    int  // distance bound; ignored in Concise mode

	// MaxCandidates, when positive, caps the total number of candidate
	// key-attribute subsets the tight/diverse searches (Apriori,
	// CliqueDFS) may generate before aborting with ErrSearchBudget. The
	// searches are exact, so a degenerate distance constraint (e.g.
	// diverse with d=0, under which every pair is compatible) makes the
	// candidate space combinatorial in K; a budget lets servers bound the
	// worst case while still returning exact answers whenever the search
	// completes. Zero means unlimited. Concise-mode algorithms ignore it.
	MaxCandidates int
}

// Validate reports whether the constraint is well formed: at least one
// table, and enough non-key budget to give every table its mandatory
// non-key attribute (Definition 1).
func (c Constraint) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: constraint k=%d, want k ≥ 1", c.K)
	}
	if c.N < c.K {
		return fmt.Errorf("core: constraint n=%d < k=%d; every table needs a non-key attribute", c.N, c.K)
	}
	if c.Mode != Concise && c.D < 0 {
		return fmt.Errorf("core: negative distance constraint d=%d", c.D)
	}
	return nil
}

// Options selects the scoring measures used by a Discoverer, and how many
// workers its searches may use.
type Options struct {
	Key    score.KeyMeasure
	NonKey score.NonKeyMeasure

	// Parallelism is the worker count for Discoverer construction (the
	// per-type candidate ranking) and for Discover's search (k-subset
	// enumeration partitioned across workers for the distance-constrained
	// modes). Values <= 1 mean one worker. Every search merges
	// per-partition bests deterministically — equal scores break toward
	// the lexicographically smallest key subset — so every worker count
	// returns the identical preview (see parallel.go).
	Parallelism int
}

// Candidate is one chosen non-key attribute of a preview table: the
// incidence (relationship type + orientation relative to the key) and its
// non-key score Sτ(γ).
type Candidate struct {
	Inc   graph.Incidence
	Score float64
}

// Table is a preview table: a key attribute (entity type) with its score
// S(τ), and at least one non-key attribute. Score is
// S(T) = S(τ) × Σγ Sτ(γ) (Eq. 2).
type Table struct {
	Key      graph.TypeID
	KeyScore float64
	NonKeys  []Candidate
	Score    float64
}

// Preview is a set of preview tables with pairwise-distinct key attributes.
// Score is Σ S(T) (Eq. 1). Stats describes the search that produced it.
type Preview struct {
	Tables []Table
	Score  float64
	Stats  SearchStats
}

// SearchStats counts work done by a discovery call, for tests and the
// efficiency experiments.
type SearchStats struct {
	// SubsetsScored is the number of complete k-subsets of key attributes
	// whose preview was assembled and scored.
	SubsetsScored int
	// CandidatesGenerated is the number of partial subsets generated: for
	// Apriori, Alg. 3's candidates, the feasible i-subsets of levels 2..k;
	// for CliqueDFS and AnytimeBest, every feasible subset they extend to;
	// 0 for the other algorithms.
	CandidatesGenerated int
}

// NonKeyCount returns the total number of non-key attributes across tables.
func (p *Preview) NonKeyCount() int {
	var n int
	for i := range p.Tables {
		n += len(p.Tables[i].NonKeys)
	}
	return n
}

// Keys returns the key attributes of the preview's tables, in table order.
func (p *Preview) Keys() []graph.TypeID {
	ks := make([]graph.TypeID, len(p.Tables))
	for i := range p.Tables {
		ks[i] = p.Tables[i].Key
	}
	return ks
}

// ErrNoPreview is returned when the constrained space is empty — e.g. no
// k-subset of entity types satisfies the distance constraint, or the schema
// has fewer than k entity types with at least one incident relationship.
var ErrNoPreview = errors.New("core: no preview satisfies the constraints")

// ErrSearchBudget is returned by the tight/diverse searches when
// Constraint.MaxCandidates is set and candidate generation exceeds it
// before the exact search completes.
var ErrSearchBudget = errors.New("core: candidate search budget exceeded")

// Discoverer solves the optimal preview discovery problems for one scored
// graph. It precomputes, per entity type, the candidate non-key attributes
// sorted by decreasing score (Theorem 3: an optimal table always takes a
// prefix of this order) and the products every search multiplies out of
// them, plus the all-pairs distance matrix on demand. A Discoverer is safe
// for concurrent use after creation.
type Discoverer struct {
	set    *score.Set
	schema *graph.Schema
	opts   Options

	ranked [][]score.RankedIncidence // per type, sorted by score desc

	// Per type t keyed by S(τ), views into one slab (products):
	// weight[t][j] = S(τ)·Sτ(γ_j), the weight Theorem 3's greedy ranks
	// t's j-th candidate by, and table[t][m] = S(τ)·Σ top-m scores, the
	// score S(T) of t's table with m candidates (table[t][0] = 0).
	weight [][]float64
	table  [][]float64

	distOnce sync.Once
	dist     *graph.DistanceMatrix
}

// New builds a Discoverer over the given precomputed scores and measures.
// With opts.Parallelism > 1 the per-type candidate ranking fans out over a
// worker pool; each type's ranking is computed by exactly one worker, so
// the Discoverer is identical to one built sequentially.
func New(set *score.Set, opts Options) *Discoverer {
	s := set.Schema()
	d := &Discoverer{set: set, schema: s, opts: opts}
	n := s.NumTypes()
	d.ranked = make([][]score.RankedIncidence, n)
	par.ForEach(opts.Parallelism, n, func(t int) {
		d.ranked[t] = set.RankNonKeys(opts.NonKey, graph.TypeID(t))
	})
	d.products()
	return d
}

// products fills weight and table from the ranked candidates and the key
// scores, in one slab. Each product is the float64 multiplication a search
// would otherwise repeat for every subset, so a score summed from the
// products is bit-identical to one multiplied out on the spot.
func (d *Discoverer) products() {
	var size int
	for _, r := range d.ranked {
		size += 2*len(r) + 1
	}
	slab := make([]float64, size)
	d.weight = make([][]float64, len(d.ranked))
	d.table = make([][]float64, len(d.ranked))
	for t, r := range d.ranked {
		ks := d.keyScore(graph.TypeID(t))
		w, tab := slab[:len(r):len(r)], slab[len(r):2*len(r)+1:2*len(r)+1]
		slab = slab[2*len(r)+1:]
		var prefix float64 // Σ top-j scores
		for j, c := range r {
			w[j] = ks * c.Score
			tab[j] = ks * prefix
			prefix += c.Score
		}
		tab[len(r)] = ks * prefix
		d.weight[t], d.table[t] = w, tab
	}
}

// Schema returns the schema graph being searched.
func (d *Discoverer) Schema() *graph.Schema { return d.schema }

// Scores returns the underlying score set.
func (d *Discoverer) Scores() *score.Set { return d.set }

// Ranked returns type t's candidate non-key attributes in Theorem 3 order.
func (d *Discoverer) Ranked(t graph.TypeID) []score.RankedIncidence { return d.ranked[t] }

// Distances returns (computing on first use) the all-pairs type distance
// matrix over the undirected schema graph. Safe for concurrent use: the
// parallel brute force shares one Discoverer across workers.
func (d *Discoverer) Distances() *graph.DistanceMatrix {
	d.distOnce.Do(func() { d.dist = d.schema.AllDistances() })
	return d.dist
}

// keyScore returns S(τ) under the configured key measure.
func (d *Discoverer) keyScore(t graph.TypeID) float64 {
	return d.set.Key(d.opts.Key, t)
}

// usable reports whether t can key a preview table at all (Definition 1
// requires at least one non-key attribute).
func (d *Discoverer) usable(t graph.TypeID) bool { return len(d.ranked[t]) > 0 }

// searchTypes validates c and lists the types a search may key tables by,
// or reports ErrNoPreview when there are fewer than c.K of them.
func (d *Discoverer) searchTypes(c Constraint) ([]graph.TypeID, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	types := d.usableTypes()
	if len(types) < c.K {
		return nil, ErrNoPreview
	}
	return types, nil
}

// usableTypes lists all entity types with at least one candidate non-key.
func (d *Discoverer) usableTypes() []graph.TypeID {
	ts := make([]graph.TypeID, 0, d.schema.NumTypes())
	for t := 0; t < d.schema.NumTypes(); t++ {
		if d.usable(graph.TypeID(t)) {
			ts = append(ts, graph.TypeID(t))
		}
	}
	return ts
}

// distOK reports whether the pair (a, b) satisfies the constraint's
// distance requirement. Disconnected pairs have infinite distance: they
// fail every Tight bound and satisfy every Diverse bound.
func (d *Discoverer) distOK(c Constraint, a, b graph.TypeID) bool {
	switch c.Mode {
	case Concise:
		return true
	case Tight:
		dist := d.Distances().Dist(a, b)
		return dist >= 0 && dist <= c.D
	case Diverse:
		dist := d.Distances().Dist(a, b)
		return dist < 0 || dist >= c.D
	default:
		return false
	}
}

// buildTable assembles the preview table keyed by t with its top-m non-key
// candidates.
func (d *Discoverer) buildTable(t graph.TypeID, m int) Table {
	cands := make([]Candidate, m)
	for i := 0; i < m; i++ {
		cands[i] = Candidate{Inc: d.ranked[t][i].Inc, Score: d.ranked[t][i].Score}
	}
	return Table{Key: t, KeyScore: d.keyScore(t), NonKeys: cands, Score: d.table[t][m]}
}

// ComputePreview builds the best preview over a fixed set of key attributes
// under a total non-key budget n — the ComputePreview subroutine of Alg. 1
// and Alg. 3. Per Theorem 3, each table takes its top-1 candidate, and the
// remaining budget goes to the globally best candidates weighted by
// S(τ)·Sτ(γ). Returns an error if some type cannot key a table.
func (d *Discoverer) ComputePreview(keys []graph.TypeID, n int) (Preview, error) {
	if len(keys) == 0 {
		return Preview{}, errors.New("core: empty key set")
	}
	if n < len(keys) {
		return Preview{}, fmt.Errorf("core: budget n=%d below table count %d", n, len(keys))
	}
	seen := make(map[graph.TypeID]bool, len(keys))
	for _, t := range keys {
		if seen[t] {
			return Preview{}, fmt.Errorf("core: duplicate key attribute %q", d.schema.TypeName(t))
		}
		seen[t] = true
		if !d.usable(t) {
			return Preview{}, fmt.Errorf("core: type %q has no candidate non-key attribute", d.schema.TypeName(t))
		}
	}

	take := make([]int, len(keys))
	d.allocate(keys, n, take)
	p := Preview{Tables: make([]Table, len(keys))}
	for i, t := range keys {
		p.Tables[i] = d.buildTable(t, take[i])
		p.Score += p.Tables[i].Score
	}
	return p, nil
}

// allocate distributes the non-key budget n over the keyed tables per
// Theorem 3, writing the per-table candidate counts into take (len(keys)).
func (d *Discoverer) allocate(keys []graph.TypeID, n int, take []int) {
	var p picks
	last := len(keys) - 1
	p.reset(d, keys[:last], n-len(keys))
	_, r, m := p.complete(d, keys[last])
	for i := range take[:last] {
		take[i] = 1
	}
	for _, i := range p.to[:r] {
		take[i]++
	}
	take[last] = m
}

// picks is Theorem 3's budget allocation over the first tables of a
// preview, run once so that any last table can be completed against it.
// Each table starts with its top-1 candidate; every extra pick then goes
// to the highest-weighted next candidate S(τ)·Sτ(γ), ties to the earliest
// table. The zero value is ready to use, and its slices are reused as
// scratch, so a search that keeps one scores allocation free once they
// have grown.
type picks struct {
	extra int       // picks the budget allows beyond one per table
	take  []int     // candidates each prefix table holds after the last pick
	w     []float64 // w[r] is the weight of the prefix's r-th extra pick
	to    []int     // to[r] is the prefix table the r-th extra pick went to
	sum   []float64 // sum[r] is Σ S(T) over the prefix after r picks, in table order
}

// reset runs the greedy over the prefix tables for up to extra picks,
// stopping early once every candidate is taken.
func (p *picks) reset(d *Discoverer, prefix []graph.TypeID, extra int) {
	p.extra = extra
	p.take = p.take[:0]
	for range prefix {
		p.take = append(p.take, 1)
	}
	p.w, p.to = p.w[:0], p.to[:0]
	p.sum = append(p.sum[:0], p.prefixScore(d, prefix))
	for len(p.w) < extra {
		best := -1
		var bestW float64
		for i, t := range prefix {
			if w := d.weight[t]; p.take[i] < len(w) && (best == -1 || w[p.take[i]] > bestW) {
				best, bestW = i, w[p.take[i]]
			}
		}
		if best == -1 {
			break // all candidates exhausted
		}
		p.take[best]++
		p.w = append(p.w, bestW)
		p.to = append(p.to, best)
		p.sum = append(p.sum, p.prefixScore(d, prefix))
	}
}

// prefixScore sums the prefix tables' scores at their current counts.
func (p *picks) prefixScore(d *Discoverer, prefix []graph.TypeID) float64 {
	var s float64
	for i, t := range prefix {
		s += d.table[t][p.take[i]]
	}
	return s
}

// complete finishes the allocation with t as the last table by merging
// t's candidates against the prefix's picks. The greedy over all the
// tables makes exactly these picks: the prefix's tables come first, so
// t's next candidate wins a pick only when it strictly outweighs the
// prefix's next one. It returns the preview's score, summed in table
// order (the prefix's tables, then t), how many of the prefix's picks the
// budget kept, and t's candidate count.
func (p *picks) complete(d *Discoverer, t graph.TypeID) (score float64, r, m int) {
	w := d.weight[t]
	m = 1
	for picked := 0; picked < p.extra; picked++ {
		if m < len(w) && (r == len(p.w) || w[m] > p.w[r]) {
			m++
		} else if r < len(p.w) {
			r++
		} else {
			break // all candidates exhausted
		}
	}
	return p.sum[r] + d.table[t][m], r, m
}

// winner assembles the preview of a search's best subset, with the
// search's stats and the number of subsets it scored, or reports
// ErrNoPreview when it scored none.
func (d *Discoverer) winner(best *top2, n int, stats SearchStats) (Preview, error) {
	if best.scored == 0 {
		return Preview{}, ErrNoPreview
	}
	p, err := d.ComputePreview(best.keys, n)
	if err != nil {
		return Preview{}, err
	}
	stats.SubsetsScored = best.scored
	p.Stats = stats
	return p, nil
}

// previewScore computes the score a preview over keys would attain under
// budget n, without materializing tables. p is caller-provided scratch.
// Keys must be usable and distinct (search loops guarantee this by
// construction).
func (d *Discoverer) previewScore(keys []graph.TypeID, n int, p *picks) float64 {
	last := len(keys) - 1
	p.reset(d, keys[:last], n-len(keys))
	score, _, _ := p.complete(d, keys[last])
	return score
}

// Discover solves the optimal preview discovery problem with the algorithm
// the paper recommends for the constraint's mode: dynamic programming for
// concise previews (Alg. 2), Apriori-style search for tight and diverse
// previews (Alg. 3) on Options.Parallelism workers. The preview is the
// same at any worker count.
func (d *Discoverer) Discover(c Constraint) (Preview, error) {
	if c.Mode == Concise {
		return d.DynamicProgramming(c)
	}
	p, _, err := d.apriori(c, par.Workers(d.opts.Parallelism))
	return p, err
}
