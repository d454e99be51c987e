// Package score implements the preview scoring measures of Sec. 3 of the
// paper: the coverage-based and random-walk based key attribute measures,
// and the coverage-based and entropy-based non-key attribute measures.
//
// Scores are precomputed once per graph into a Set, which the discovery
// algorithms then consult in O(1). This mirrors the paper's setup: "Both
// the schema graph and the scoring measures ... are computed before optimal
// preview discovery" (Sec. 5).
package score

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
)

// KeyMeasure selects the scoring measure for key attributes (entity types).
type KeyMeasure int

// Key attribute measures (Sec. 3.2).
const (
	KeyCoverage   KeyMeasure = iota // Scov(τ): number of entities of type τ
	KeyRandomWalk                   // Swalk(τ): stationary probability of τ
)

// String returns the measure name as used in the paper's tables.
func (m KeyMeasure) String() string {
	switch m {
	case KeyCoverage:
		return "Coverage"
	case KeyRandomWalk:
		return "Random Walk"
	default:
		return fmt.Sprintf("KeyMeasure(%d)", int(m))
	}
}

// ParseKeyMeasure maps a key measure's name onto the measure, ignoring
// case: coverage, or walk (also random-walk and randomwalk). The server's
// key= parameter and previewgen's -key flag both parse through it.
func ParseKeyMeasure(name string) (KeyMeasure, error) {
	switch v := strings.ToLower(name); v {
	case "coverage":
		return KeyCoverage, nil
	case "walk", "random-walk", "randomwalk":
		return KeyRandomWalk, nil
	default:
		return 0, fmt.Errorf("unknown key measure %q: want coverage or walk", v)
	}
}

// NonKeyMeasure selects the scoring measure for non-key attributes
// (relationship types).
type NonKeyMeasure int

// Non-key attribute measures (Sec. 3.3).
const (
	NonKeyCoverage NonKeyMeasure = iota // Sτcov(γ): number of edges of type γ
	NonKeyEntropy                       // Sτent(γ): entropy of γ's values in table τ
)

// String returns the measure name as used in the paper's tables.
func (m NonKeyMeasure) String() string {
	switch m {
	case NonKeyCoverage:
		return "Coverage"
	case NonKeyEntropy:
		return "Entropy"
	default:
		return fmt.Sprintf("NonKeyMeasure(%d)", int(m))
	}
}

// ParseNonKeyMeasure maps a non-key measure's name, coverage or entropy,
// onto the measure, ignoring case.
func ParseNonKeyMeasure(name string) (NonKeyMeasure, error) {
	switch v := strings.ToLower(name); v {
	case "coverage":
		return NonKeyCoverage, nil
	case "entropy":
		return NonKeyEntropy, nil
	default:
		return 0, fmt.Errorf("unknown nonkey measure %q: want coverage or entropy", v)
	}
}

// WalkOptions configures the random-walk key measure and, because it is
// the options value every scoring entry point already threads through, the
// parallelism of the scoring hot paths.
type WalkOptions struct {
	// Smoothing is the small transition probability added between every
	// pair of entity types to guarantee convergence on disconnected schema
	// graphs. The paper uses 1e-5 (Sec. 6).
	Smoothing float64
	// Tolerance is the L1 convergence threshold of power iteration.
	Tolerance float64
	// MaxIter caps power iteration.
	MaxIter int
	// Parallelism is the worker count of the per-type fan-out every Set
	// is assembled by: the coverage and entropy scores of each entity
	// type. Values <= 1 mean sequential. Results are bit-identical at
	// every setting: each type's scores are computed by exactly one
	// worker with an accumulation order that does not depend on the
	// worker count (see internal/par). Power iteration
	// (StationaryDistribution) is sequential at every setting.
	Parallelism int
}

// DefaultWalkOptions returns the paper's configuration (sequential; set
// Parallelism explicitly to fan out).
func DefaultWalkOptions() WalkOptions {
	return WalkOptions{Smoothing: 1e-5, Tolerance: 1e-12, MaxIter: 10000}
}

// Set holds every precomputed score for one entity graph: key attribute
// scores per measure per entity type, and non-key attribute scores per
// measure per (entity type, incidence). A Set is immutable once made.
type Set struct {
	schema *graph.Schema

	keyCov  []float64 // per TypeID
	keyWalk []float64 // per TypeID

	// nonKey[measure][type] is index-aligned with schema.Incident(type).
	nonKeyCov [][]float64
	nonKeyEnt [][]float64
}

// Compute precomputes all four measures for g. The entropy measure
// materializes per-tuple value sets, so Compute is the only phase that
// touches the entity graph; discovery afterwards only needs the Set and the
// schema graph.
//
// With opts.Parallelism > 1 the per-type work — coverage plus every
// incident attribute's entropy, the dominant cost of the precomputation —
// fans out over a worker pool. Each type's scores are computed by exactly
// one worker with the same per-type code as the sequential path and
// written to slots only that worker touches, so the resulting Set is
// bit-identical to a sequential Compute.
func Compute(g *graph.EntityGraph, opts WalkOptions) *Set {
	return ComputeWith(g, func(t graph.TypeID, incs []graph.Incidence, ent []float64) {
		var sc entropyScratch
		for i, inc := range incs {
			ent[i] = sc.entropy(g, t, inc)
		}
	}, opts)
}

// ComputeWith is Compute for a caller that keeps its own entropies
// (package dynamic's maintained histograms): coverage, the relationship
// counts and the walk come from g as in Compute, and entropy fills ent,
// index-aligned with incs = g.Schema().Incident(t), with the entropy of
// each of type t's incidences. It runs once per type, on one of
// opts.Parallelism workers. Every entropy must be non-negative, as every
// measure computed here is: Alg. 3's search (package core) skips subsets
// by a bound that is exact only then. HistogramEntropy sums non-negative
// terms, so its entropies are.
func ComputeWith(g *graph.EntityGraph, entropy func(t graph.TypeID, incs []graph.Incidence, ent []float64), opts WalkOptions) *Set {
	return assemble(g, g.Schema(), entropy, opts)
}

// ComputeSchemaOnly builds a Set for a bare schema graph (no entity graph).
// Key coverage and entropy are unavailable and default to zero; key
// random-walk uses unit edge weights. It backs the NP-hardness reduction
// tests, where the optimization is purely structural (s = 0 in the decision
// problems).
func ComputeSchemaOnly(s *graph.Schema, opts WalkOptions) *Set {
	return assemble(nil, s, func(graph.TypeID, []graph.Incidence, []float64) {}, opts)
}

// assemble is the one builder of a Set. Per type, on opts.Parallelism
// workers, it reads the type's coverage off g (zero without one), each
// incidence's relationship count off s and the type's entropies; then it
// solves the walk on s.
func assemble(g *graph.EntityGraph, s *graph.Schema, entropy func(graph.TypeID, []graph.Incidence, []float64), opts WalkOptions) *Set {
	n := s.NumTypes()
	set := &Set{schema: s, keyCov: make([]float64, n), nonKeyCov: make([][]float64, n), nonKeyEnt: make([][]float64, n)}
	par.ForEach(opts.Parallelism, n, func(i int) {
		t := graph.TypeID(i)
		if g != nil {
			set.keyCov[t] = float64(g.TypeCoverage(t))
		}
		incs := s.Incident(t)
		cov := make([]float64, len(incs))
		for j, inc := range incs {
			cov[j] = float64(s.RelType(inc.Rel).EdgeCount)
		}
		ent := make([]float64, len(incs))
		entropy(t, incs, ent)
		set.nonKeyCov[t], set.nonKeyEnt[t] = cov, ent
	})
	set.keyWalk = StationaryDistribution(s, opts)
	return set
}

// Schema returns the schema graph the scores were computed against.
func (s *Set) Schema() *graph.Schema { return s.schema }

// Key returns S(τ) under the given measure.
func (s *Set) Key(m KeyMeasure, t graph.TypeID) float64 {
	switch m {
	case KeyCoverage:
		return s.keyCov[t]
	case KeyRandomWalk:
		return s.keyWalk[t]
	}
	panic("score: unknown key measure")
}

// NonKey returns Sτ(γ) for the i-th incidence of type t (index aligned with
// Schema().Incident(t)) under the given measure.
func (s *Set) NonKey(m NonKeyMeasure, t graph.TypeID, i int) float64 {
	switch m {
	case NonKeyCoverage:
		return s.nonKeyCov[t][i]
	case NonKeyEntropy:
		return s.nonKeyEnt[t][i]
	}
	panic("score: unknown non-key measure")
}

// RankKeys returns all entity types sorted by decreasing score under m,
// breaking ties by TypeID for determinism.
func (s *Set) RankKeys(m KeyMeasure) []graph.TypeID {
	ids := make([]graph.TypeID, len(s.keyCov))
	for i := range ids {
		ids[i] = graph.TypeID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := s.Key(m, ids[a]), s.Key(m, ids[b])
		if sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// RankedIncidence is one candidate non-key attribute with its score.
type RankedIncidence struct {
	Index int // index into Schema().Incident(t)
	Inc   graph.Incidence
	Score float64
}

// RankNonKeys returns the candidate non-key attributes of type t sorted by
// decreasing score under m (Theorem 3 ordering), breaking ties by incidence
// index for determinism.
func (s *Set) RankNonKeys(m NonKeyMeasure, t graph.TypeID) []RankedIncidence {
	incs := s.schema.Incident(t)
	rs := make([]RankedIncidence, len(incs))
	for i, inc := range incs {
		rs[i] = RankedIncidence{Index: i, Inc: inc, Score: s.NonKey(m, t, i)}
	}
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].Index < rs[b].Index
	})
	return rs
}

// StationaryDistribution computes the random-walk scores Swalk over the
// undirected weighted schema view: π = πM where Mij = wij / Σk wik, with
// opts.Smoothing added between every (ordered) pair of distinct types and
// rows renormalized (the paper's convergence fix for disconnected schema
// graphs). The result sums to 1; an empty schema returns an empty slice.
// Iteration starts from the uniform distribution, so the result is a
// function of the schema and opts alone.
//
// Iteration uses the lazy walk (M+I)/2, which has exactly the same fixed
// point π = πM but converges even on periodic (bipartite) schema graphs,
// where plain power iteration oscillates forever.
//
// The iteration step is formulated as a gather (next[j] pulls from j's
// neighbors in adjacency order) rather than a scatter, so each row of
// next is a pure function of pi with a fixed accumulation order. The
// iteration runs on one goroutine whatever opts.Parallelism says: a step
// costs ~K·deg flops, microseconds on every shipped schema (K ≤ 91).
func StationaryDistribution(s *graph.Schema, opts WalkOptions) []float64 {
	n := s.NumTypes()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10000
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-12
	}

	// Row sums after smoothing: total weight + smoothing to (n-1) others.
	rowSum := make([]float64, n)
	for t := 0; t < n; t++ {
		rowSum[t] = s.TotalWeight(graph.TypeID(t)) + opts.Smoothing*float64(n-1)
	}

	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		// The global smoothing mass Σ_t pi[t]·σ/rowSum[t] every row
		// receives (each row subtracts its own contribution — no self
		// smoothing), plus the uniform share isolated vertices with zero
		// smoothing distribute to keep the chain stochastic.
		var smoothTotal, isoShare float64
		for t := 0; t < n; t++ {
			if rowSum[t] == 0 {
				isoShare += pi[t] / float64(n)
			} else {
				smoothTotal += pi[t] * opts.Smoothing / rowSum[t]
			}
		}
		base := smoothTotal + isoShare
		// next = pi · M, gathered per row.
		var delta float64
		for j := 0; j < n; j++ {
			var sum float64
			neighbors, weights := s.Neighbors(graph.TypeID(j))
			for i, u := range neighbors {
				if rowSum[u] > 0 {
					sum += pi[u] * weights[i] / rowSum[u]
				}
			}
			sum += base
			if rowSum[j] > 0 {
				sum -= pi[j] * opts.Smoothing / rowSum[j] // no self smoothing
			}
			next[j] = 0.5*sum + 0.5*pi[j] // lazy step
			delta += math.Abs(next[j] - pi[j])
		}
		pi, next = next, pi
		if delta < opts.Tolerance {
			break
		}
	}
	// Normalize defensively against floating-point drift.
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if sum > 0 {
		for i := range pi {
			pi[i] /= sum
		}
	}
	return pi
}

// Entropy computes Sτent(γ) (Sec. 3.3): the entropy, in log base 10, of the
// distribution of value sets attained by the tuples of the table keyed by
// entity type t on the non-key attribute inc. Tuples with empty values are
// excluded from the denominator; two multi-valued cells are equal iff they
// contain the same set of component entities.
func Entropy(g *graph.EntityGraph, t graph.TypeID, inc graph.Incidence) float64 {
	var sc entropyScratch
	return sc.entropy(g, t, inc)
}

// SizeCount is one distinct group size of a value-set histogram and the
// number of groups of that size.
type SizeCount struct{ Size, Groups int }

// HistogramEntropy is Sτent from a table's histogram of group sizes: its
// tuples split into groups of equal value sets, and hist lists each
// distinct group size once, in ascending order, with the number of groups
// of that size. The entropy depends only on that multiset, and summing it
// in ascending size order, each term weighted by its multiplicity, fixes
// the floating-point summation order. Summing in group discovery order
// would let the graph's layout, or a live graph's history, pick it: enough
// to flip score ties and to break the bit-identical guarantee the parallel
// paths and the differential tests rely on. Compute and package dynamic's
// maintained histograms both emit through here, so a live graph's entropy
// equals Compute's on the same state bit for bit. Every term is
// non-negative, and so is the sum.
func HistogramEntropy(hist []SizeCount) float64 {
	var n int
	for _, sc := range hist {
		n += sc.Size * sc.Groups
	}
	var h float64
	total := float64(n)
	for _, sc := range hist {
		p := float64(sc.Size) / total
		h += float64(sc.Groups) * p * math.Log10(1/p)
	}
	return h
}

// entropyScratch is Entropy's working memory, reused across the
// incidences of one type by Compute.
type entropyScratch struct {
	singles []graph.EntityID // the value of each single-valued tuple
	key     []byte           // a multi-valued set's key
	multi   map[string]int   // multi-valued set key → index into sizes
	sizes   []int            // group sizes
	hist    []SizeCount      // the sizes' histogram
}

func (sc *entropyScratch) entropy(g *graph.EntityGraph, t graph.TypeID, inc graph.Incidence) float64 {
	singles, sizes := sc.singles[:0], sc.sizes[:0]
	clear(sc.multi)
	for _, e := range g.EntitiesOfType(t) {
		vals := g.Neighbors(e, inc.Rel, inc.Outgoing)
		switch len(vals) {
		case 0:
		case 1:
			// A single value is its own group, counted below by id.
			singles = append(singles, vals[0])
		default:
			// A multi-valued set is keyed by its run, which is in the
			// graph's name order: equal sets are equal runs.
			sc.key = sc.key[:0]
			for _, id := range vals {
				sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(id))
			}
			if i, ok := sc.multi[string(sc.key)]; ok {
				sizes[i]++
			} else {
				if sc.multi == nil {
					sc.multi = make(map[string]int)
				}
				sc.multi[string(sc.key)] = len(sizes)
				sizes = append(sizes, 1)
			}
		}
	}
	slices.Sort(singles)
	for i := 0; i < len(singles); {
		j := i + 1
		for j < len(singles) && singles[j] == singles[i] {
			j++
		}
		sizes = append(sizes, j-i)
		i = j
	}
	slices.Sort(sizes)
	hist := sc.hist[:0]
	for i := 0; i < len(sizes); {
		j := i + 1
		for j < len(sizes) && sizes[j] == sizes[i] {
			j++
		}
		hist = append(hist, SizeCount{Size: sizes[i], Groups: j - i})
		i = j
	}
	sc.singles, sc.sizes, sc.hist = singles, sizes, hist
	return HistogramEntropy(hist)
}
