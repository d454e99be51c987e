package core_test

// Differential tests for the parallel hot paths: on randomized generated
// graphs, every (measure pair × mode × constraint) must yield identical
// previews — tables, scores, everything except the work counters — whether
// the scoring and search ran sequentially or on a worker pool, and the
// parallel searches must agree with brute force on the optimum. These
// tests are the determinism guarantee of docs/ARCHITECTURE.md in
// executable form.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// diffWorkers is the worker-pool size the differential tests compare
// against sequential execution. Fixed above 1 (rather than NumCPU) so the
// parallel code paths are exercised even on a single-core CI machine.
const diffWorkers = 4

// diffDomains generates the randomized test graphs: two domains with very
// different schema sizes (basketball K=6, architecture K=23), two seeds
// each.
func diffDomains(t *testing.T) map[string]*graph.EntityGraph {
	t.Helper()
	graphs := map[string]*graph.EntityGraph{}
	for _, domain := range []string{"basketball", "architecture"} {
		for _, seed := range []int64{7, 20160626} {
			g, err := freebase.Generate(domain, freebase.GenOptions{
				Scale: 1e-4, Seed: seed, MinEntities: 300, MinEdges: 1200,
			})
			if err != nil {
				t.Fatal(err)
			}
			graphs[domain+"/"+string(rune('0'+seed%10))] = g
		}
	}
	return graphs
}

// measurePairs enumerates all four scoring configurations.
func measurePairs() []core.Options {
	var pairs []core.Options
	for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
		for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
			pairs = append(pairs, core.Options{Key: km, NonKey: nm})
		}
	}
	return pairs
}

// diffConstraints sweeps the three modes at brute-forceable sizes.
func diffConstraints() []core.Constraint {
	return []core.Constraint{
		{K: 2, N: 5, Mode: core.Concise},
		{K: 3, N: 7, Mode: core.Concise},
		{K: 2, N: 4, Mode: core.Tight, D: 2},
		{K: 3, N: 6, Mode: core.Tight, D: 3},
		{K: 2, N: 4, Mode: core.Diverse, D: 2},
		{K: 3, N: 6, Mode: core.Diverse, D: 3},
		{K: 4, N: 8, Mode: core.Diverse, D: 1},
	}
}

// stripStats zeroes the work counters, the one field allowed to differ
// between algorithms (and the only one that may not differ between
// parallelism levels of the same algorithm — see TestAprioriParallelStats).
func stripStats(p core.Preview) core.Preview {
	p.Stats = core.SearchStats{}
	return p
}

// TestScoreComputeParallelBitIdentical: the scoring precomputation is the
// first hot path — a parallel Compute must reproduce the sequential Set
// bit for bit, across every measure.
func TestScoreComputeParallelBitIdentical(t *testing.T) {
	for name, g := range diffDomains(t) {
		seq := score.Compute(g, score.DefaultWalkOptions())
		parOpts := score.DefaultWalkOptions()
		parOpts.Parallelism = diffWorkers
		parSet := score.Compute(g, parOpts)

		s := seq.Schema()
		for ti := 0; ti < s.NumTypes(); ti++ {
			tid := graph.TypeID(ti)
			for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
				if a, b := seq.Key(km, tid), parSet.Key(km, tid); a != b {
					t.Fatalf("%s: key %v score of type %d differs: sequential %v, parallel %v", name, km, ti, a, b)
				}
			}
			for i := range s.Incident(tid) {
				for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
					if a, b := seq.NonKey(nm, tid, i), parSet.NonKey(nm, tid, i); a != b {
						t.Fatalf("%s: non-key %v score of (%d, %d) differs: sequential %v, parallel %v", name, nm, ti, i, a, b)
					}
				}
			}
		}
	}
}

// TestDiscoverDifferential is the core differential property: for every
// (measure pair × mode × constraint), Parallelism=1 and Parallelism=N
// produce identical previews, and both agree with brute force on the
// optimal score.
func TestDiscoverDifferential(t *testing.T) {
	parOpts := score.DefaultWalkOptions()
	parOpts.Parallelism = diffWorkers
	for name, g := range diffDomains(t) {
		seqSet := score.Compute(g, score.DefaultWalkOptions())
		parSet := score.Compute(g, parOpts)
		for _, pair := range measurePairs() {
			seqOpts, parOpts := pair, pair
			seqOpts.Parallelism = 1
			parOpts.Parallelism = diffWorkers
			dSeq := core.New(seqSet, seqOpts)
			dPar := core.New(parSet, parOpts)
			for _, c := range diffConstraints() {
				pSeq, errSeq := dSeq.Discover(c)
				pPar, errPar := dPar.Discover(c)
				if (errSeq == nil) != (errPar == nil) || (errSeq != nil && !errors.Is(errPar, errSeq)) {
					t.Fatalf("%s %v %+v: error divergence: sequential %v, parallel %v", name, pair, c, errSeq, errPar)
				}
				if errSeq != nil {
					continue
				}
				if !reflect.DeepEqual(stripStats(pSeq), stripStats(pPar)) {
					t.Fatalf("%s %v %+v: previews diverge:\nsequential %+v\nparallel   %+v", name, pair, c, pSeq, pPar)
				}

				// Ground truth: brute force over the same sequential set.
				pBF, errBF := dSeq.BruteForce(c)
				if errBF != nil {
					t.Fatalf("%s %v %+v: brute force failed where Discover succeeded: %v", name, pair, c, errBF)
				}
				tol := 1e-12 * (1 + math.Abs(pBF.Score))
				if math.Abs(pBF.Score-pSeq.Score) > tol {
					t.Fatalf("%s %v %+v: Discover score %v != brute-force optimum %v", name, pair, c, pSeq.Score, pBF.Score)
				}
				// And the parallel brute force agrees with everything else.
				pBFP, errBFP := dPar.BruteForceParallel(c, diffWorkers)
				if errBFP != nil {
					t.Fatal(errBFP)
				}
				if math.Abs(pBFP.Score-pBF.Score) > tol {
					t.Fatalf("%s %v %+v: parallel brute-force score %v != sequential %v", name, pair, c, pBFP.Score, pBF.Score)
				}
			}
		}
	}
}

// TestDiscoverRepeatedRunsIdentical: two independent end-to-end runs —
// fresh score sets, fresh discoverers — must produce byte-identical
// previews. This pins the deterministic tie-breaking (RankKeys,
// RankNonKeys, search merges) and the order-stable entropy accumulation:
// before the Entropy fix, Go's randomized map iteration could flip the
// last bits of a score between runs and with them the chosen preview.
func TestDiscoverRepeatedRunsIdentical(t *testing.T) {
	g, err := freebase.Generate("basketball", freebase.GenOptions{
		Scale: 1e-4, Seed: 99, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []core.Preview {
		opts := score.DefaultWalkOptions()
		opts.Parallelism = workers
		set := score.Compute(g, opts)
		var out []core.Preview
		for _, pair := range measurePairs() {
			pair.Parallelism = workers
			d := core.New(set, pair)
			for _, c := range diffConstraints() {
				p, err := d.Discover(c)
				if errors.Is(err, core.ErrNoPreview) {
					out = append(out, core.Preview{}) // infeasible: must be infeasible every run
					continue
				}
				if err != nil {
					t.Fatalf("workers=%d %v %+v: %v", workers, pair, c, err)
				}
				out = append(out, stripStats(p))
			}
		}
		return out
	}
	first := run(1)
	for _, workers := range []int{1, diffWorkers} {
		again := run(workers)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("workers=%d: repeated run produced different previews", workers)
		}
	}
}

// TestAprioriParallelStats: Apriori and AprioriParallel are worker counts
// of one search, so even their work counters match.
func TestAprioriParallelStats(t *testing.T) {
	g, err := freebase.Generate("architecture", freebase.GenOptions{
		Scale: 1e-4, Seed: 3, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	for _, c := range []core.Constraint{
		{K: 1, N: 3, Mode: core.Tight, D: 2},
		{K: 3, N: 6, Mode: core.Tight, D: 3},
		{K: 4, N: 8, Mode: core.Diverse, D: 1},
	} {
		seq, errSeq := d.Apriori(c)
		parp, errPar := d.AprioriParallel(c, diffWorkers)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("%+v: error divergence: %v vs %v", c, errSeq, errPar)
		}
		if errSeq != nil {
			continue
		}
		if !reflect.DeepEqual(seq, parp) {
			t.Fatalf("%+v: full previews (including stats) diverge:\nsequential %+v\nparallel   %+v", c, seq, parp)
		}
	}
}

// TestAprioriParallelBudgetBoundary: the shared atomic budget counter
// gives every worker count of the one search the same outcome — success
// at a budget equal to the total candidate volume, ErrSearchBudget one
// below it.
func TestAprioriParallelBudgetBoundary(t *testing.T) {
	g, err := freebase.Generate("architecture", freebase.GenOptions{
		Scale: 1e-4, Seed: 5, MinEntities: 300, MinEdges: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	c := core.Constraint{K: 3, N: 6, Mode: core.Diverse, D: 2}

	unbounded, err := d.Apriori(c)
	if err != nil {
		t.Fatal(err)
	}
	total := unbounded.Stats.CandidatesGenerated
	if total < 2 {
		t.Fatalf("constraint too small to exercise the budget: %d candidates", total)
	}

	for _, workers := range []int{1, diffWorkers} {
		exact := c
		exact.MaxCandidates = total
		p, err := d.AprioriParallel(exact, workers)
		if err != nil {
			t.Fatalf("workers=%d: budget == volume (%d) must succeed, got %v", workers, total, err)
		}
		if !reflect.DeepEqual(stripStats(p), stripStats(unbounded)) {
			t.Fatalf("workers=%d: budgeted preview differs from unbounded", workers)
		}
		tight := c
		tight.MaxCandidates = total - 1
		if _, err := d.AprioriParallel(tight, workers); !errors.Is(err, core.ErrSearchBudget) {
			t.Fatalf("workers=%d: budget below volume must fail with ErrSearchBudget, got %v", workers, err)
		}
	}
}
