package core_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

const eps = 1e-9

// fig1Discoverer builds a coverage/coverage discoverer over Fig. 1.
func fig1Discoverer(t *testing.T) (*graph.EntityGraph, *core.Discoverer) {
	t.Helper()
	g := fig1.Graph()
	set := score.Compute(g, score.DefaultWalkOptions())
	return g, core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
}

func keyNames(g *graph.EntityGraph, p core.Preview) map[string]bool {
	names := map[string]bool{}
	for _, tb := range p.Tables {
		names[g.TypeName(tb.Key)] = true
	}
	return names
}

func TestOptimalConciseFig1(t *testing.T) {
	// Sec. 4 example: with coverage/coverage and (k=2, n=6) the optimal
	// concise preview scores 4·(6+5+4+2) + 2·(6+2) = 84 (the paper's
	// solution; a tie with FILM taking all five attributes also scores 84).
	g, d := fig1Discoverer(t)
	for _, algo := range []struct {
		name string
		run  func(core.Constraint) (core.Preview, error)
	}{
		{"BruteForce", d.BruteForce},
		{"DP", d.DynamicProgramming},
		{"Apriori", d.Apriori},
	} {
		p, err := algo.run(core.Constraint{K: 2, N: 6, Mode: core.Concise})
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if math.Abs(p.Score-84) > eps {
			t.Errorf("%s: optimal concise score = %v, want 84", algo.name, p.Score)
		}
		if len(p.Tables) != 2 {
			t.Errorf("%s: tables = %d, want 2", algo.name, len(p.Tables))
		}
		if n := p.NonKeyCount(); n != 6 {
			t.Errorf("%s: non-key attributes = %d, want 6", algo.name, n)
		}
		if !keyNames(g, p)[fig1.Film] {
			t.Errorf("%s: FILM must key a table in the optimal preview", algo.name)
		}
	}
}

func TestOptimalDiverseFig1(t *testing.T) {
	// Sec. 4 example: with (k=2, n=6, d=2) the optimal diverse preview is
	// {FILM with all five attributes; AWARD with Award Winners}:
	// 4·(6+5+4+2+1) + 3·2 = 78.
	g, d := fig1Discoverer(t)
	for _, algo := range []struct {
		name string
		run  func(core.Constraint) (core.Preview, error)
	}{
		{"BruteForce", d.BruteForce},
		{"Apriori", d.Apriori},
		{"CliqueDFS", d.CliqueDFS},
	} {
		p, err := algo.run(core.Constraint{K: 2, N: 6, Mode: core.Diverse, D: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if math.Abs(p.Score-78) > eps {
			t.Errorf("%s: optimal diverse score = %v, want 78", algo.name, p.Score)
		}
		names := keyNames(g, p)
		if !names[fig1.Film] || !names[fig1.Award] {
			t.Errorf("%s: keys = %v, want {FILM, AWARD}", algo.name, names)
		}
		for _, tb := range p.Tables {
			if g.TypeName(tb.Key) == fig1.Film && len(tb.NonKeys) != 5 {
				t.Errorf("%s: FILM table has %d non-keys, want all 5", algo.name, len(tb.NonKeys))
			}
		}
	}
}

func TestOptimalTightFig1(t *testing.T) {
	// d=1 restricts keys to adjacent types; {FILM, FILM ACTOR} still
	// achieves 84.
	_, d := fig1Discoverer(t)
	p, err := d.Apriori(core.Constraint{K: 2, N: 6, Mode: core.Tight, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Score-84) > eps {
		t.Errorf("optimal tight score = %v, want 84", p.Score)
	}
}

func TestDiscoverDispatch(t *testing.T) {
	_, d := fig1Discoverer(t)
	p1, err := d.Discover(core.Constraint{K: 2, N: 6, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Discover(core.Constraint{K: 2, N: 6, Mode: core.Diverse, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.Score-84) > eps || math.Abs(p2.Score-78) > eps {
		t.Errorf("Discover scores = %v, %v; want 84, 78", p1.Score, p2.Score)
	}
}

func TestDPRejectsDistanceModes(t *testing.T) {
	_, d := fig1Discoverer(t)
	_, err := d.DynamicProgramming(core.Constraint{K: 2, N: 6, Mode: core.Tight, D: 2})
	var me *core.ModeError
	if !errors.As(err, &me) {
		t.Fatalf("DP on tight previews: err = %v, want ModeError", err)
	}
	if me.Error() == "" {
		t.Error("ModeError message empty")
	}
}

func TestConstraintValidation(t *testing.T) {
	_, d := fig1Discoverer(t)
	if _, err := d.BruteForce(core.Constraint{K: 0, N: 5}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := d.DynamicProgramming(core.Constraint{K: 3, N: 2}); err == nil {
		t.Error("n<k should fail")
	}
	if _, err := d.Apriori(core.Constraint{K: 2, N: 4, Mode: core.Tight, D: -1}); err == nil {
		t.Error("negative d should fail")
	}
}

func TestNoPreviewWhenKTooLarge(t *testing.T) {
	_, d := fig1Discoverer(t)
	for _, run := range []func(core.Constraint) (core.Preview, error){d.BruteForce, d.DynamicProgramming, d.Apriori} {
		if _, err := run(core.Constraint{K: 7, N: 10, Mode: core.Concise}); !errors.Is(err, core.ErrNoPreview) {
			t.Errorf("k beyond type count: err = %v, want ErrNoPreview", err)
		}
	}
}

func TestNoPreviewWhenDistanceInfeasible(t *testing.T) {
	// Fig. 3 has diameter 2: no pair is ≥ 5 apart.
	_, d := fig1Discoverer(t)
	for _, run := range []func(core.Constraint) (core.Preview, error){d.BruteForce, d.Apriori, d.CliqueDFS} {
		if _, err := run(core.Constraint{K: 2, N: 4, Mode: core.Diverse, D: 5}); !errors.Is(err, core.ErrNoPreview) {
			t.Errorf("infeasible distance: err = %v, want ErrNoPreview", err)
		}
	}
}

func TestSingleTablePreview(t *testing.T) {
	g, d := fig1Discoverer(t)
	p, err := d.Discover(core.Constraint{K: 1, N: 3, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tables) != 1 || g.TypeName(p.Tables[0].Key) != fig1.Film {
		t.Errorf("k=1 preview should be a single FILM table, got %v", keyNames(g, p))
	}
	// FILM's top 3 by coverage: Actor 6, Genres 5, Director 4 → 4·15 = 60.
	if math.Abs(p.Score-60) > eps {
		t.Errorf("k=1 n=3 score = %v, want 60", p.Score)
	}
}

func TestTheorem3PrefixProperty(t *testing.T) {
	// Every table of every optimal preview takes a prefix of the ranked
	// candidate order: its m-th candidate score equals the m-th ranked.
	_, d := fig1Discoverer(t)
	p, err := d.BruteForce(core.Constraint{K: 3, N: 8, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range p.Tables {
		ranked := d.Ranked(tb.Key)
		for i, c := range tb.NonKeys {
			if math.Abs(c.Score-ranked[i].Score) > eps {
				t.Errorf("table %d candidate %d score %v != ranked %v", tb.Key, i, c.Score, ranked[i].Score)
			}
		}
	}
}

func TestMonotonicityProposition2(t *testing.T) {
	// Prop. 2: widening a table (larger n for the same keys) never lowers
	// its score.
	g, d := fig1Discoverer(t)
	film, _ := g.TypeByName(fig1.Film)
	actor, _ := g.TypeByName(fig1.FilmActor)
	keys := []graph.TypeID{film, actor}
	var last float64 = -1
	for n := 2; n <= 8; n++ {
		p, err := d.ComputePreview(keys, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Score < last-eps {
			t.Errorf("score decreased when n grew to %d: %v < %v", n, p.Score, last)
		}
		last = p.Score
	}
}

func TestMonotonicityProposition1(t *testing.T) {
	// Prop. 1: a superset preview scores at least as much. Growing k (with
	// ample n) never lowers the optimum.
	_, d := fig1Discoverer(t)
	var last float64 = -1
	for k := 1; k <= 6; k++ {
		p, err := d.BruteForce(core.Constraint{K: k, N: k + 20, Mode: core.Concise})
		if err != nil {
			t.Fatal(err)
		}
		if p.Score < last-eps {
			t.Errorf("optimum decreased at k=%d: %v < %v", k, p.Score, last)
		}
		last = p.Score
	}
}

func TestComputePreviewErrors(t *testing.T) {
	g, d := fig1Discoverer(t)
	film, _ := g.TypeByName(fig1.Film)
	if _, err := d.ComputePreview(nil, 3); err == nil {
		t.Error("empty key set should fail")
	}
	if _, err := d.ComputePreview([]graph.TypeID{film, film}, 4); err == nil {
		t.Error("duplicate keys should fail")
	}
	if _, err := d.ComputePreview([]graph.TypeID{film}, 0); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestComputePreviewExhaustsCandidates(t *testing.T) {
	// Budget beyond the schema's capacity: tables take everything available
	// and the preview simply has fewer than n non-keys (footnote 2).
	g, d := fig1Discoverer(t)
	film, _ := g.TypeByName(fig1.Film)
	p, err := d.ComputePreview([]graph.TypeID{film}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NonKeyCount(); got != 5 {
		t.Errorf("non-keys = %d, want all 5 of FILM's candidates", got)
	}
}

func TestSearchStats(t *testing.T) {
	_, d := fig1Discoverer(t)
	p, err := d.BruteForce(core.Constraint{K: 2, N: 6, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	// C(6,2) = 15 subsets.
	if p.Stats.SubsetsScored != 15 {
		t.Errorf("brute force scored %d subsets, want 15", p.Stats.SubsetsScored)
	}
	pa, err := d.Apriori(core.Constraint{K: 2, N: 6, Mode: core.Diverse, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Stats.SubsetsScored >= 15 {
		t.Errorf("apriori scored %d subsets, want fewer than brute force's 15", pa.Stats.SubsetsScored)
	}
	if pa.Stats.CandidatesGenerated == 0 {
		t.Error("apriori should report generated candidates")
	}
}

func TestModeString(t *testing.T) {
	if core.Concise.String() != "Concise" || core.Tight.String() != "Tight" || core.Diverse.String() != "Diverse" {
		t.Error("mode names")
	}
	if core.Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

// ---------------------------------------------------------------------------
// Randomized cross-validation of the three algorithms.

// randomEntityGraph builds a small random typed entity graph.
func randomEntityGraph(rng *rand.Rand) *graph.EntityGraph {
	var b graph.Builder
	nTypes := rng.Intn(7) + 2
	types := make([]graph.TypeID, nTypes)
	for i := range types {
		types[i] = b.Type("T" + string(rune('A'+i)))
	}
	nRels := rng.Intn(12) + 1
	rels := make([]graph.RelTypeID, 0, nRels)
	for i := 0; i < nRels; i++ {
		from := types[rng.Intn(nTypes)]
		to := types[rng.Intn(nTypes)]
		rels = append(rels, b.RelType("r"+string(rune('0'+i%10))+string(rune('a'+i/10)), from, to))
	}
	nEnts := rng.Intn(30) + 5
	ents := make([]graph.EntityID, nEnts)
	for i := range ents {
		ents[i] = b.Entity("e"+string(rune('0'+i%10))+string(rune('a'+i/10)), types[rng.Intn(nTypes)])
	}
	nEdges := rng.Intn(60)
	for i := 0; i < nEdges; i++ {
		b.Edge(ents[rng.Intn(nEnts)], ents[rng.Intn(nEnts)], rels[rng.Intn(len(rels))])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func randomOptions(rng *rand.Rand) core.Options {
	o := core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}
	if rng.Intn(2) == 0 {
		o.Key = score.KeyRandomWalk
	}
	if rng.Intn(2) == 0 {
		o.NonKey = score.NonKeyEntropy
	}
	return o
}

func TestDPMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		k := rng.Intn(3) + 1
		n := k + rng.Intn(5)
		c := core.Constraint{K: k, N: n, Mode: core.Concise}
		pBF, errBF := d.BruteForce(c)
		pDP, errDP := d.DynamicProgramming(c)
		if (errBF == nil) != (errDP == nil) {
			t.Logf("seed %d: errBF=%v errDP=%v", seed, errBF, errDP)
			return false
		}
		if errBF != nil {
			return true
		}
		if math.Abs(pBF.Score-pDP.Score) > 1e-9*(1+math.Abs(pBF.Score)) {
			t.Logf("seed %d: BF=%v DP=%v (k=%d n=%d)", seed, pBF.Score, pDP.Score, k, n)
			return false
		}
		return pDP.NonKeyCount() <= n && len(pDP.Tables) == k
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAprioriMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		k := rng.Intn(3) + 1
		n := k + rng.Intn(5)
		mode := core.Tight
		if rng.Intn(2) == 0 {
			mode = core.Diverse
		}
		c := core.Constraint{K: k, N: n, Mode: mode, D: rng.Intn(3) + 1}
		pBF, errBF := d.BruteForce(c)
		pAP, errAP := d.Apriori(c)
		pDF, errDF := d.CliqueDFS(c)
		if (errBF == nil) != (errAP == nil) || (errBF == nil) != (errDF == nil) {
			t.Logf("seed %d: errBF=%v errAP=%v errDF=%v", seed, errBF, errAP, errDF)
			return false
		}
		if errBF != nil {
			return true
		}
		tol := 1e-9 * (1 + math.Abs(pBF.Score))
		if math.Abs(pBF.Score-pAP.Score) > tol || math.Abs(pBF.Score-pDF.Score) > tol {
			t.Logf("seed %d: BF=%v AP=%v DFS=%v (%+v)", seed, pBF.Score, pAP.Score, pDF.Score, c)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDistanceConstraintHonored(t *testing.T) {
	// Every pair of tables in the returned preview satisfies the bound.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		mode := core.Tight
		if rng.Intn(2) == 0 {
			mode = core.Diverse
		}
		c := core.Constraint{K: rng.Intn(3) + 2, N: 12, Mode: mode, D: rng.Intn(3) + 1}
		p, err := d.Apriori(c)
		if err != nil {
			return true
		}
		m := d.Distances()
		keys := p.Keys()
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				dist := m.Dist(keys[i], keys[j])
				if mode == core.Tight && (dist < 0 || dist > c.D) {
					return false
				}
				if mode == core.Diverse && dist >= 0 && dist < c.D {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPreviewKeysDistinct(t *testing.T) {
	// Definition 1: preview tables have pairwise distinct key attributes.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEntityGraph(rng)
		set := score.Compute(g, score.DefaultWalkOptions())
		d := core.New(set, randomOptions(rng))
		p, err := d.DynamicProgramming(core.Constraint{K: rng.Intn(4) + 1, N: 10, Mode: core.Concise})
		if err != nil {
			return true
		}
		seen := map[graph.TypeID]bool{}
		for _, tb := range p.Tables {
			if seen[tb.Key] {
				return false
			}
			seen[tb.Key] = true
			if len(tb.NonKeys) == 0 {
				return false // Definition 1: at least one non-key attribute
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableScoreEquation2(t *testing.T) {
	// S(T) = S(τ) × Σ Sτ(γ) and S(P) = Σ S(T) hold exactly on outputs.
	_, d := fig1Discoverer(t)
	p, err := d.BruteForce(core.Constraint{K: 3, N: 7, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, tb := range p.Tables {
		var sum float64
		for _, c := range tb.NonKeys {
			sum += c.Score
		}
		if math.Abs(tb.Score-tb.KeyScore*sum) > eps {
			t.Errorf("table score %v != key %v × Σ %v", tb.Score, tb.KeyScore, sum)
		}
		total += tb.Score
	}
	if math.Abs(total-p.Score) > eps {
		t.Errorf("preview score %v != Σ tables %v", p.Score, total)
	}
}

// TestSearchBudget pins MaxCandidates: a starved budget aborts the
// tight/diverse searches with ErrSearchBudget, while a sufficient one
// returns exactly the unbounded result. AnytimeBest runs CliqueDFS's
// enumeration and answers its budget instead of raising it: at every
// budget up to the unbounded candidate volume it returns CliqueDFS's
// preview and stats, converged, where CliqueDFS completes, and reports
// converged=false where CliqueDFS exceeds the budget.
func TestSearchBudget(t *testing.T) {
	_, d := fig1Discoverer(t)
	// Diverse with d=0 degenerates: every pair is compatible, so the
	// candidate space is all k-subsets — the worst case the budget guards.
	c := core.Constraint{K: 3, N: 3, Mode: core.Diverse, D: 0}

	unbounded, err := d.Apriori(c)
	if err != nil {
		t.Fatal(err)
	}

	c.MaxCandidates = 2
	if _, err := d.Apriori(c); !errors.Is(err, core.ErrSearchBudget) {
		t.Errorf("Apriori with starved budget: got %v, want ErrSearchBudget", err)
	}
	if _, err := d.CliqueDFS(c); !errors.Is(err, core.ErrSearchBudget) {
		t.Errorf("CliqueDFS with starved budget: got %v, want ErrSearchBudget", err)
	}

	c.MaxCandidates = 1 << 20
	for name, f := range map[string]func(core.Constraint) (core.Preview, error){
		"Apriori": d.Apriori, "CliqueDFS": d.CliqueDFS,
	} {
		p, err := f(c)
		if err != nil {
			t.Fatalf("%s with ample budget: %v", name, err)
		}
		if math.Abs(p.Score-unbounded.Score) > eps {
			t.Errorf("%s budgeted score %v != unbounded %v", name, p.Score, unbounded.Score)
		}
	}

	c.MaxCandidates = 0
	full, err := d.CliqueDFS(c)
	if err != nil {
		t.Fatal(err)
	}
	volume := full.Stats.CandidatesGenerated
	for budget := 1; budget <= volume; budget++ {
		c.MaxCandidates = budget
		pc, errc := d.CliqueDFS(c)
		pa, converged, erra := d.AnytimeBest(c)
		switch {
		case errc == nil:
			if erra != nil || !converged || !reflect.DeepEqual(pa, pc) {
				t.Errorf("budget %d: AnytimeBest (%+v, converged=%t, %v), want CliqueDFS's %+v, converged", budget, pa, converged, erra, pc)
			}
		case errors.Is(errc, core.ErrSearchBudget):
			if converged {
				t.Errorf("budget %d: CliqueDFS exceeded the budget but AnytimeBest reports converged (%v)", budget, erra)
			}
		default:
			t.Fatalf("budget %d: CliqueDFS: %v", budget, errc)
		}
		if budget == volume && errc != nil {
			t.Errorf("budget == unbounded volume %d: CliqueDFS got %v", volume, errc)
		}
	}
}

// TestSearchBudgetExactBoundary pins the boundary: when the search
// completes having generated exactly MaxCandidates candidates, the
// budget must not fire — the outcome (including ErrNoPreview) must match
// the unbounded run. Path schema a-b-c-d under Tight d=1: the compatible
// pairs are exactly the 3 path edges and no triple is pairwise-close, so
// the unbounded search generates 3 candidates and finds no preview.
func TestSearchBudgetExactBoundary(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	var rels []graph.RelType
	for i := 1; i < len(names); i++ {
		rels = append(rels, graph.RelType{Name: "r", From: graph.TypeID(i - 1), To: graph.TypeID(i)})
	}
	s, err := graph.NewSchema(names, rels)
	if err != nil {
		t.Fatal(err)
	}
	set := score.ComputeSchemaOnly(s, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})

	c := core.Constraint{K: 3, N: 3, Mode: core.Tight, D: 1}
	if _, err := d.Apriori(c); !errors.Is(err, core.ErrNoPreview) {
		t.Fatalf("unbounded: got %v, want ErrNoPreview", err)
	}
	p, _ := d.Apriori(core.Constraint{K: 2, N: 2, Mode: core.Tight, D: 1})
	if got := p.Stats.CandidatesGenerated; got != 3 {
		t.Fatalf("pair level generated %d candidates, want 3 (fixture drifted)", got)
	}
	c.MaxCandidates = 3 // exactly the pair level; the empty join must complete
	if _, err := d.Apriori(c); !errors.Is(err, core.ErrNoPreview) {
		t.Errorf("budget == candidates generated: got %v, want ErrNoPreview", err)
	}
	c.MaxCandidates = 2 // genuinely starved
	if _, err := d.Apriori(c); !errors.Is(err, core.ErrSearchBudget) {
		t.Errorf("starved budget: got %v, want ErrSearchBudget", err)
	}
}
