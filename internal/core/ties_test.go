package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
)

func TestAllOptimalFig1Ties(t *testing.T) {
	// The Sec. 4 example has two tied optimal key subsets at score 84:
	// {FILM, FILM ACTOR} (the paper's answer) and {FILM, FILM DIRECTOR}.
	g, d := fig1Discoverer(t)
	all, err := d.AllOptimal(core.Constraint{K: 2, N: 6, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("tied optima = %d, want 2", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if math.Abs(p.Score-84) > eps {
			t.Errorf("tied preview score = %v, want 84", p.Score)
		}
		for _, k := range p.Keys() {
			seen[g.TypeName(k)] = true
		}
	}
	if !seen[fig1.Film] || !seen[fig1.FilmActor] || !seen[fig1.FilmDirector] {
		t.Errorf("tied key attributes = %v", seen)
	}
}

func TestAllOptimalUniqueOptimum(t *testing.T) {
	// Diverse d=2 on Fig. 1 has the unique optimum {FILM, AWARD}.
	g, d := fig1Discoverer(t)
	all, err := d.AllOptimal(core.Constraint{K: 2, N: 6, Mode: core.Diverse, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("tied optima = %d, want 1", len(all))
	}
	names := keyNames(g, all[0])
	if !names[fig1.Film] || !names[fig1.Award] {
		t.Errorf("keys = %v", names)
	}
}

func TestAllOptimalContainsBruteForceOptimum(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		c := core.Constraint{K: rng.Intn(3) + 1, N: 8, Mode: core.Concise}
		bf, errBF := d.BruteForce(c)
		all, errAll := d.AllOptimal(c)
		if (errBF == nil) != (errAll == nil) {
			return false
		}
		if errBF != nil {
			return true
		}
		if len(all) == 0 {
			return false
		}
		for _, p := range all {
			if math.Abs(p.Score-bf.Score) > 1e-9*(1+math.Abs(bf.Score)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllOptimalErrors(t *testing.T) {
	_, d := fig1Discoverer(t)
	if _, err := d.AllOptimal(core.Constraint{K: 0, N: 1}); err == nil {
		t.Error("invalid constraint should fail")
	}
	if _, err := d.AllOptimal(core.Constraint{K: 9, N: 9}); err != core.ErrNoPreview {
		t.Error("oversized k should report ErrNoPreview")
	}
}

// TestBruteForceParallelMatchesSequential: BruteForce and
// BruteForceParallel are worker counts of one search, so on random graphs
// they agree on the optimum and on the subsets scored.
func TestBruteForceParallelMatchesSequential(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		mode := core.Concise
		switch rng.Intn(3) {
		case 1:
			mode = core.Tight
		case 2:
			mode = core.Diverse
		}
		c := core.Constraint{K: rng.Intn(3) + 1, N: 8, Mode: mode, D: rng.Intn(3) + 1}
		seq, errSeq := d.BruteForce(c)
		par, errPar := d.BruteForceParallel(c, rng.Intn(4)+1)
		if (errSeq == nil) != (errPar == nil) {
			t.Logf("seed %d: errSeq=%v errPar=%v", seed, errSeq, errPar)
			return false
		}
		if errSeq != nil {
			return true
		}
		if math.Abs(seq.Score-par.Score) > 1e-9*(1+math.Abs(seq.Score)) {
			t.Logf("seed %d: seq=%v par=%v", seed, seq.Score, par.Score)
			return false
		}
		if seq.Stats.SubsetsScored != par.Stats.SubsetsScored {
			t.Logf("seed %d: scored seq=%d par=%d", seed, seq.Stats.SubsetsScored, par.Stats.SubsetsScored)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestBruteForceParallelDeterministicAcrossWorkerCounts: Fig. 1's concise
// optimum is tied, and every worker count of the one search picks the
// same tied subset.
func TestBruteForceParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	_, d := fig1Discoverer(t)
	c := core.Constraint{K: 2, N: 6, Mode: core.Concise}
	var firstKeys []string
	g := fig1.Graph()
	for _, workers := range []int{1, 2, 4, 16} {
		p, err := d.BruteForceParallel(c, workers)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, k := range p.Keys() {
			names = append(names, g.TypeName(k))
		}
		if firstKeys == nil {
			firstKeys = names
			continue
		}
		for i := range names {
			if names[i] != firstKeys[i] {
				t.Fatalf("workers=%d chose %v, first run chose %v", workers, names, firstKeys)
			}
		}
	}
}

// TestBruteForceParallelErrors: on more than one worker the search still
// rejects invalid constraints and reports an empty space as ErrNoPreview.
func TestBruteForceParallelErrors(t *testing.T) {
	_, d := fig1Discoverer(t)
	if _, err := d.BruteForceParallel(core.Constraint{K: 0, N: 0}, 2); err == nil {
		t.Error("invalid constraint should fail")
	}
	if _, err := d.BruteForceParallel(core.Constraint{K: 2, N: 4, Mode: core.Diverse, D: 9}, 2); err != core.ErrNoPreview {
		t.Error("infeasible constraint should report ErrNoPreview")
	}
}
