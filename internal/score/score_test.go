package score_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

const eps = 1e-9

func fig1Set(t *testing.T) (*graph.EntityGraph, *score.Set) {
	t.Helper()
	g := fig1.Graph()
	return g, score.Compute(g, score.DefaultWalkOptions())
}

func typeID(t *testing.T, g *graph.EntityGraph, name string) graph.TypeID {
	t.Helper()
	id, ok := g.TypeByName(name)
	if !ok {
		t.Fatalf("type %q not found", name)
	}
	return id
}

// incidence finds the incidence of relationship type relName on keyed type t
// with the given orientation.
func incidence(t *testing.T, s *graph.Schema, keyed graph.TypeID, relName string, outgoing bool) (graph.Incidence, int) {
	t.Helper()
	for i, inc := range s.Incident(keyed) {
		if s.RelType(inc.Rel).Name == relName && inc.Outgoing == outgoing {
			return inc, i
		}
	}
	t.Fatalf("incidence %q (outgoing=%v) not found on %s", relName, outgoing, s.TypeName(keyed))
	return graph.Incidence{}, -1
}

func TestKeyCoverageFig1(t *testing.T) {
	g, set := fig1Set(t)
	if got := set.Key(score.KeyCoverage, typeID(t, g, fig1.Film)); got != 4 {
		t.Errorf("Scov(FILM) = %v, want 4", got)
	}
	if got := set.Key(score.KeyCoverage, typeID(t, g, fig1.FilmActor)); got != 2 {
		t.Errorf("Scov(FILM ACTOR) = %v, want 2", got)
	}
}

func TestNonKeyCoverageFig1(t *testing.T) {
	// Sec. 3.3: SFILMcov(Director) = 4, SFILMcov(Genres) = 5.
	g, set := fig1Set(t)
	film := typeID(t, g, fig1.Film)
	s := set.Schema()
	_, di := incidence(t, s, film, fig1.RelDirector, false)
	if got := set.NonKey(score.NonKeyCoverage, film, di); got != 4 {
		t.Errorf("Scov(Director) = %v, want 4", got)
	}
	_, gi := incidence(t, s, film, fig1.RelGenres, true)
	if got := set.NonKey(score.NonKeyCoverage, film, gi); got != 5 {
		t.Errorf("Scov(Genres) = %v, want 5", got)
	}
}

func TestNonKeyCoverageSymmetric(t *testing.T) {
	// "The coverage-based scoring measure for non-key attribute is
	// symmetric": the score of γ is the same whether τ or τ' keys the table.
	g, set := fig1Set(t)
	s := set.Schema()
	film := typeID(t, g, fig1.Film)
	genre := typeID(t, g, fig1.FilmGenre)
	_, fi := incidence(t, s, film, fig1.RelGenres, true)
	_, gi := incidence(t, s, genre, fig1.RelGenres, false)
	a := set.NonKey(score.NonKeyCoverage, film, fi)
	b := set.NonKey(score.NonKeyCoverage, genre, gi)
	if a != b {
		t.Errorf("coverage asymmetric: %v vs %v", a, b)
	}
}

func TestEntropyFig1WorkedExample(t *testing.T) {
	// Sec. 3.3: SFILMent(Director) = (2/4)log(4/2) + (1/4)log(4) + (1/4)log(4)
	// ≈ 0.45 and SFILMent(Genres) = (2/3)log(3/2) + (1/3)log(3) ≈ 0.28,
	// in log base 10.
	g, set := fig1Set(t)
	s := set.Schema()
	film := typeID(t, g, fig1.Film)

	_, di := incidence(t, s, film, fig1.RelDirector, false)
	wantDirector := 0.5*math.Log10(2) + 0.5*math.Log10(4)
	if got := set.NonKey(score.NonKeyEntropy, film, di); math.Abs(got-wantDirector) > eps {
		t.Errorf("Sent(Director) = %v, want %v", got, wantDirector)
	}
	if got := set.NonKey(score.NonKeyEntropy, film, di); math.Abs(got-0.45) > 0.005 {
		t.Errorf("Sent(Director) = %v, want ≈0.45 (paper)", got)
	}

	_, gi := incidence(t, s, film, fig1.RelGenres, true)
	wantGenres := (2.0/3.0)*math.Log10(1.5) + (1.0/3.0)*math.Log10(3)
	if got := set.NonKey(score.NonKeyEntropy, film, gi); math.Abs(got-wantGenres) > eps {
		t.Errorf("Sent(Genres) = %v, want %v", got, wantGenres)
	}
	if got := set.NonKey(score.NonKeyEntropy, film, gi); math.Abs(got-0.28) > 0.005 {
		t.Errorf("Sent(Genres) = %v, want ≈0.28 (paper)", got)
	}
}

func TestEntropyAsymmetric(t *testing.T) {
	// "the entropy-based scoring measure for non-key attribute is
	// asymmetric": from the FILM side Genres groups films by genre sets;
	// from the FILM GENRE side it groups genres by film sets.
	g, set := fig1Set(t)
	s := set.Schema()
	film := typeID(t, g, fig1.Film)
	genre := typeID(t, g, fig1.FilmGenre)
	_, fi := incidence(t, s, film, fig1.RelGenres, true)
	_, gi := incidence(t, s, genre, fig1.RelGenres, false)
	a := set.NonKey(score.NonKeyEntropy, film, fi)
	b := set.NonKey(score.NonKeyEntropy, genre, gi)
	if math.Abs(a-b) < eps {
		t.Errorf("entropy unexpectedly symmetric: %v vs %v", a, b)
	}
	// From the genre side: Action Film ← {MIB, MIB2, IRobot},
	// Science Fiction ← {MIB, MIB2}: two distinct singleton groups of 2
	// tuples → H = 2 × (1/2)log(2) = log10(2).
	if want := math.Log10(2); math.Abs(b-want) > eps {
		t.Errorf("Sent(Genres) from FILM GENRE = %v, want %v", b, want)
	}
}

func TestEntropyEmptyAttribute(t *testing.T) {
	var b graph.Builder
	a := b.Type("A")
	c := b.Type("C")
	b.RelType("r", a, c)
	b.Entity("x", a)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(g, score.DefaultWalkOptions())
	// No edges at all: entropy is 0 by convention.
	if got := set.NonKey(score.NonKeyEntropy, a, 0); got != 0 {
		t.Errorf("entropy of empty attribute = %v, want 0", got)
	}
}

func TestEntropyUniformVsSkewed(t *testing.T) {
	// n tuples with n distinct values maximizes entropy: H = log10(n).
	// n tuples all sharing one value gives H = 0.
	build := func(distinct bool) *graph.EntityGraph {
		var b graph.Builder
		a := b.Type("A")
		c := b.Type("C")
		r := b.RelType("r", a, c)
		shared := b.Entity("shared", c)
		for i := 0; i < 8; i++ {
			x := b.Entity(string(rune('a'+i)), a)
			if distinct {
				y := b.Entity(string(rune('A'+i)), c)
				b.Edge(x, y, r)
			} else {
				b.Edge(x, shared, r)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gU := build(true)
	setU := score.Compute(gU, score.DefaultWalkOptions())
	aU, _ := gU.TypeByName("A")
	if got, want := setU.NonKey(score.NonKeyEntropy, aU, 0), math.Log10(8); math.Abs(got-want) > eps {
		t.Errorf("uniform entropy = %v, want %v", got, want)
	}
	gS := build(false)
	setS := score.Compute(gS, score.DefaultWalkOptions())
	aS, _ := gS.TypeByName("A")
	if got := setS.NonKey(score.NonKeyEntropy, aS, 0); got != 0 {
		t.Errorf("constant-value entropy = %v, want 0", got)
	}
}

func TestEntropyValueSetGrouping(t *testing.T) {
	// "for two values on a multi-valued attribute ... we consider them
	// equivalent if and only if they have the same set of component values".
	// {v1,v2} and {v2,v1} must collide; {v1} must not collide with {v1,v2}.
	var b graph.Builder
	a := b.Type("A")
	c := b.Type("C")
	r := b.RelType("r", a, c)
	v1 := b.Entity("v1", c)
	v2 := b.Entity("v2", c)
	x := b.Entity("x", a)
	y := b.Entity("y", a)
	z := b.Entity("z", a)
	b.Edge(x, v1, r)
	b.Edge(x, v2, r)
	b.Edge(y, v2, r) // insertion order reversed relative to x
	b.Edge(y, v1, r)
	b.Edge(z, v1, r)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(g, score.DefaultWalkOptions())
	// Groups: {v1,v2}×2, {v1}×1 over 3 non-empty tuples.
	want := (2.0/3.0)*math.Log10(1.5) + (1.0/3.0)*math.Log10(3)
	if got := set.NonKey(score.NonKeyEntropy, a, 0); math.Abs(got-want) > eps {
		t.Errorf("value-set entropy = %v, want %v", got, want)
	}
}

func TestStationaryFig1TransitionExample(t *testing.T) {
	// The paper computes MFILM,FILM GENRE = 5/18 ≈ 0.28 and
	// MFILM,FILM PRODUCER = 3/18 ≈ 0.17. Verify through the weights.
	g, _ := fig1Set(t)
	s := g.Schema()
	film := typeID(t, g, fig1.Film)
	total := s.TotalWeight(film)
	if total != 18 {
		t.Fatalf("total weight of FILM = %v, want 18", total)
	}
	neighbors, weights := s.Neighbors(film)
	for i, u := range neighbors {
		p := weights[i] / total
		switch s.TypeName(u) {
		case fig1.FilmGenre:
			if math.Abs(p-5.0/18.0) > eps {
				t.Errorf("M(FILM→GENRE) = %v, want 5/18", p)
			}
		case fig1.FilmProducer:
			if math.Abs(p-3.0/18.0) > eps {
				t.Errorf("M(FILM→PRODUCER) = %v, want 3/18", p)
			}
		}
	}
}

func TestStationarySumsToOne(t *testing.T) {
	_, set := fig1Set(t)
	var sum float64
	for i := 0; i < set.Schema().NumTypes(); i++ {
		p := set.Key(score.KeyRandomWalk, graph.TypeID(i))
		if p < 0 {
			t.Errorf("negative stationary probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary distribution sums to %v, want 1", sum)
	}
}

func TestStationaryFilmIsTop(t *testing.T) {
	// FILM is the hub of Fig. 3: it must have the highest stationary
	// probability.
	g, set := fig1Set(t)
	ranked := set.RankKeys(score.KeyRandomWalk)
	if got := g.TypeName(ranked[0]); got != fig1.Film {
		t.Errorf("top random-walk type = %s, want FILM", got)
	}
}

func TestStationaryDisconnectedNeedsSmoothing(t *testing.T) {
	// Two components: {a-b} heavy, {c-d} light. With smoothing the
	// distribution converges and every type gets positive mass.
	s, err := graph.NewSchema([]string{"a", "b", "c", "d"}, []graph.RelType{
		{Name: "r", From: 0, To: 1, EdgeCount: 100},
		{Name: "r", From: 2, To: 3, EdgeCount: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := score.StationaryDistribution(s, score.DefaultWalkOptions())
	var sum float64
	for _, p := range pi {
		if p <= 0 {
			t.Errorf("stationary probability %v not positive", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v, want 1", sum)
	}
}

func TestStationaryIsolatedVertex(t *testing.T) {
	// A vertex with no incident edges and zero smoothing must not break
	// the iteration (uniform redistribution keeps the chain stochastic).
	s, err := graph.NewSchema([]string{"a", "b", "c"}, []graph.RelType{
		{Name: "r", From: 0, To: 1, EdgeCount: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := score.StationaryDistribution(s, score.WalkOptions{Smoothing: 0, Tolerance: 1e-12, MaxIter: 5000})
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("sum = %v, want 1", sum)
	}
}

func TestStationaryTwoVertexChain(t *testing.T) {
	// A single undirected edge: stationary distribution is (1/2, 1/2)
	// regardless of weight.
	s, err := graph.NewSchema([]string{"a", "b"}, []graph.RelType{
		{Name: "r", From: 0, To: 1, EdgeCount: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := score.StationaryDistribution(s, score.DefaultWalkOptions())
	if math.Abs(pi[0]-0.5) > 1e-6 || math.Abs(pi[1]-0.5) > 1e-6 {
		t.Errorf("pi = %v, want (0.5, 0.5)", pi)
	}
}

func TestStationaryWeightedStar(t *testing.T) {
	// Star a-(b,c) with weights 3 and 1. Theory: for an undirected chain,
	// pi(v) ∝ degree weight. Weights: a: 4, b: 3, c: 1 → pi = (1/2, 3/8, 1/8).
	s, err := graph.NewSchema([]string{"a", "b", "c"}, []graph.RelType{
		{Name: "r", From: 0, To: 1, EdgeCount: 3},
		{Name: "r", From: 0, To: 2, EdgeCount: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pi := score.StationaryDistribution(s, score.WalkOptions{Smoothing: 0, Tolerance: 1e-13, MaxIter: 100000})
	want := []float64{0.5, 0.375, 0.125}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-4 {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], want[i])
			break
		}
	}
}

func TestStationaryEdgeCases(t *testing.T) {
	empty, err := graph.NewSchema(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pi := score.StationaryDistribution(empty, score.DefaultWalkOptions()); len(pi) != 0 {
		t.Errorf("empty schema pi = %v", pi)
	}
	single, err := graph.NewSchema([]string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pi := score.StationaryDistribution(single, score.DefaultWalkOptions()); len(pi) != 1 || pi[0] != 1 {
		t.Errorf("single-vertex pi = %v, want [1]", pi)
	}
}

func TestRankKeysDeterministicAndSorted(t *testing.T) {
	_, set := fig1Set(t)
	for _, m := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
		r1 := set.RankKeys(m)
		r2 := set.RankKeys(m)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("%v ranking not deterministic", m)
			}
			if i > 0 && set.Key(m, r1[i-1]) < set.Key(m, r1[i]) {
				t.Fatalf("%v ranking not sorted", m)
			}
		}
	}
}

func TestRankNonKeysSorted(t *testing.T) {
	g, set := fig1Set(t)
	film := typeID(t, g, fig1.Film)
	ranked := set.RankNonKeys(score.NonKeyCoverage, film)
	if len(ranked) != 5 {
		t.Fatalf("ranked candidates = %d, want 5", len(ranked))
	}
	// Top candidate by coverage is Actor (6 edges).
	if name := set.Schema().RelType(ranked[0].Inc.Rel).Name; name != fig1.RelActor {
		t.Errorf("top non-key of FILM = %s, want Actor", name)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Error("non-key ranking not sorted")
		}
	}
}

func TestMeasureStrings(t *testing.T) {
	if score.KeyCoverage.String() != "Coverage" || score.KeyRandomWalk.String() != "Random Walk" {
		t.Error("key measure names")
	}
	if score.NonKeyCoverage.String() != "Coverage" || score.NonKeyEntropy.String() != "Entropy" {
		t.Error("non-key measure names")
	}
	if score.KeyMeasure(9).String() == "" || score.NonKeyMeasure(9).String() == "" {
		t.Error("unknown measures should still render")
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	// Entropy is always in [0, log10(#tuples)] on random bipartite graphs.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b graph.Builder
		a := b.Type("A")
		c := b.Type("C")
		r := b.RelType("r", a, c)
		nLeft := rng.Intn(12) + 1
		nRight := rng.Intn(6) + 1
		for i := 0; i < nLeft; i++ {
			x := b.Entity(string(rune('a'))+string(rune('0'+i%10))+string(rune('0'+i/10)), a)
			for j := 0; j < nRight; j++ {
				if rng.Intn(3) == 0 {
					y := b.Entity("R"+string(rune('0'+j)), c)
					b.Edge(x, y, r)
				}
			}
		}
		b.Entity("pad", c) // keep type C inhabited
		g, err := b.Build()
		if err != nil {
			return false
		}
		set := score.Compute(g, score.DefaultWalkOptions())
		h := set.NonKey(score.NonKeyEntropy, a, 0)
		return h >= 0 && h <= math.Log10(float64(nLeft))+eps
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestComputeSchemaOnly(t *testing.T) {
	s, err := graph.NewSchema([]string{"a", "b"}, []graph.RelType{
		{Name: "r", From: 0, To: 1, EdgeCount: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := score.ComputeSchemaOnly(s, score.DefaultWalkOptions())
	if got := set.Key(score.KeyCoverage, 0); got != 0 {
		t.Errorf("schema-only coverage = %v, want 0", got)
	}
	if got := set.NonKey(score.NonKeyCoverage, 0, 0); got != 4 {
		t.Errorf("schema-only non-key coverage = %v, want 4", got)
	}
	if got := set.NonKey(score.NonKeyEntropy, 0, 0); got != 0 {
		t.Errorf("schema-only entropy = %v, want 0", got)
	}
}

// TestParseMeasures: the measure names the server's key= and nonkey=
// parameters and previewgen's -key and -nonkey flags accept, in any case,
// and the error text for every other name.
func TestParseMeasures(t *testing.T) {
	keys := []struct {
		name string
		want score.KeyMeasure
		err  string
	}{
		{name: "coverage", want: score.KeyCoverage},
		{name: "Coverage", want: score.KeyCoverage},
		{name: "walk", want: score.KeyRandomWalk},
		{name: "Walk", want: score.KeyRandomWalk},
		{name: "random-walk", want: score.KeyRandomWalk},
		{name: "RandomWalk", want: score.KeyRandomWalk},
		{name: "", err: `unknown key measure "": want coverage or walk`},
		{name: "entropy", err: `unknown key measure "entropy": want coverage or walk`},
		{name: "random walk", err: `unknown key measure "random walk": want coverage or walk`},
		{name: "BOGUS", err: `unknown key measure "bogus": want coverage or walk`},
	}
	for _, tc := range keys {
		got, err := score.ParseKeyMeasure(tc.name)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseKeyMeasure(%q) = (%v, %v), want error %q", tc.name, got, err, tc.err)
			}
		} else if err != nil || got != tc.want {
			t.Errorf("ParseKeyMeasure(%q) = (%v, %v), want %v", tc.name, got, err, tc.want)
		}
	}

	nonKeys := []struct {
		name string
		want score.NonKeyMeasure
		err  string
	}{
		{name: "coverage", want: score.NonKeyCoverage},
		{name: "COVERAGE", want: score.NonKeyCoverage},
		{name: "entropy", want: score.NonKeyEntropy},
		{name: "Entropy", want: score.NonKeyEntropy},
		{name: "", err: `unknown nonkey measure "": want coverage or entropy`},
		{name: "entopy", err: `unknown nonkey measure "entopy": want coverage or entropy`},
		{name: "walk", err: `unknown nonkey measure "walk": want coverage or entropy`},
	}
	for _, tc := range nonKeys {
		got, err := score.ParseNonKeyMeasure(tc.name)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseNonKeyMeasure(%q) = (%v, %v), want error %q", tc.name, got, err, tc.err)
			}
		} else if err != nil || got != tc.want {
			t.Errorf("ParseNonKeyMeasure(%q) = (%v, %v), want %v", tc.name, got, err, tc.want)
		}
	}
}
