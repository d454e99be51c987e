package dynamic_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

const eps = 1e-9

// buildFig1Dynamic streams the Fig. 1 graph into a dynamic.Graph.
func buildFig1Dynamic(t *testing.T) *dynamic.Graph {
	t.Helper()
	var g dynamic.Graph
	film := g.Type("FILM")
	actor := g.Type("FILM ACTOR")
	director := g.Type("FILM DIRECTOR")
	producer := g.Type("FILM PRODUCER")
	genre := g.Type("FILM GENRE")
	award := g.Type("AWARD")

	mustRel := func(name string, from, to graph.TypeID) graph.RelTypeID {
		r, err := g.RelType(name, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rActor := mustRel("Actor", actor, film)
	rDirector := mustRel("Director", director, film)
	rGenres := mustRel("Genres", film, genre)
	rProducer := mustRel("Producer", producer, film)
	rExec := mustRel("Executive Producer", producer, film)
	rAwardA := mustRel("Award Winners", actor, award)
	rAwardD := mustRel("Award Winners", director, award)

	edge := func(from, to string, r graph.RelTypeID) {
		if err := g.AddEdge(g.Entity(from), g.Entity(to), r); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"Men in Black", "Men in Black II", "Hancock", "I, Robot"} {
		edge("Will Smith", f, rActor)
	}
	edge("Tommy Lee Jones", "Men in Black", rActor)
	edge("Tommy Lee Jones", "Men in Black II", rActor)
	edge("Barry Sonnenfeld", "Men in Black", rDirector)
	edge("Barry Sonnenfeld", "Men in Black II", rDirector)
	edge("Peter Berg", "Hancock", rDirector)
	edge("Alex Proyas", "I, Robot", rDirector)
	edge("Men in Black", "Action Film", rGenres)
	edge("Men in Black", "Science Fiction", rGenres)
	edge("Men in Black II", "Action Film", rGenres)
	edge("Men in Black II", "Science Fiction", rGenres)
	edge("I, Robot", "Action Film", rGenres)
	edge("Will Smith", "Hancock", rProducer)
	edge("Will Smith", "Men in Black II", rProducer)
	edge("Will Smith", "I, Robot", rExec)
	edge("Will Smith", "Saturn Award", rAwardA)
	edge("Tommy Lee Jones", "Academy Award", rAwardA)
	edge("Barry Sonnenfeld", "Razzie Award", rAwardD)
	return &g
}

func TestIncrementalMatchesBatchOnFig1(t *testing.T) {
	dg := buildFig1Dynamic(t)
	incSet, err := dg.Scores(score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := dg.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	batchSet := score.Compute(frozen, score.DefaultWalkOptions())
	assertSetsEqual(t, incSet, batchSet)
}

// assertSetsEqual fails t unless a equals b bit for bit (ScoresEqual).
func assertSetsEqual(t *testing.T, a, b *score.Set) {
	t.Helper()
	if err := dynamic.ScoresEqual(a, b); err != nil {
		t.Error(err)
	}
}

func TestIncrementalMatchesBatchProperty(t *testing.T) {
	// Stream random graphs edge by edge, parallel duplicate edges
	// included; the incrementally maintained Set must equal a batch
	// recompute over the frozen graph, which counts every copy, bit for
	// bit under all four measures.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var dg dynamic.Graph
		nTypes := rng.Intn(5) + 2
		types := make([]graph.TypeID, nTypes)
		for i := range types {
			types[i] = dg.Type("T" + string(rune('A'+i)))
		}
		var rels []graph.RelTypeID
		for i := 0; i < rng.Intn(8)+1; i++ {
			r, err := dg.RelType("r"+string(rune('0'+i)), types[rng.Intn(nTypes)], types[rng.Intn(nTypes)])
			if err != nil {
				return false
			}
			rels = append(rels, r)
		}
		nEnts := rng.Intn(20) + 4
		ents := make([]graph.EntityID, nEnts)
		for i := range ents {
			ents[i] = dg.Entity("e"+string(rune('a'+i%26))+string(rune('0'+i/26)), types[rng.Intn(nTypes)])
		}
		for i := 0; i < rng.Intn(40)+5; i++ {
			from := ents[rng.Intn(nEnts)]
			to := ents[rng.Intn(nEnts)]
			rel := rels[rng.Intn(len(rels))]
			if err := dg.AddEdge(from, to, rel); err != nil {
				return false
			}
		}
		incSet, err := dg.Scores(score.DefaultWalkOptions())
		if err != nil {
			return false
		}
		frozen, err := dg.Freeze()
		if err != nil {
			return false
		}
		if err := frozen.Validate(); err != nil {
			return false
		}
		batch := score.Compute(frozen, score.DefaultWalkOptions())
		return dynamic.ScoresEqual(incSet, batch) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDiscoveryOnIncrementalScores(t *testing.T) {
	// End to end: the Set produced incrementally feeds the discovery
	// algorithms and yields the paper's optimal score.
	dg := buildFig1Dynamic(t)
	set, err := dg.Scores(score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	p, err := d.Discover(core.Constraint{K: 2, N: 6, Mode: core.Concise})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Score-84) > eps {
		t.Errorf("score on incremental set = %v, want 84", p.Score)
	}
}

func TestUpdatesShiftScores(t *testing.T) {
	// Adding edges changes the maintained measures in the expected
	// directions without a rescan.
	var g dynamic.Graph
	a := g.Type("A")
	c := g.Type("C")
	r, err := g.RelType("r", a, c)
	if err != nil {
		t.Fatal(err)
	}
	x := g.Entity("x", a)
	y := g.Entity("y", a)
	shared := g.Entity("s", c)
	other := g.Entity("o", c)
	if err := g.AddEdge(x, shared, r); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(y, shared, r); err != nil {
		t.Fatal(err)
	}
	set1, err := g.Scores(score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both tuples share the value set {s}: entropy 0.
	if got := set1.NonKey(score.NonKeyEntropy, a, 0); got != 0 {
		t.Errorf("entropy before update = %v, want 0", got)
	}
	// y gains a second value: value sets {s} and {s,o} → entropy log10(2).
	if err := g.AddEdge(y, other, r); err != nil {
		t.Fatal(err)
	}
	set2, err := g.Scores(score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := set2.NonKey(score.NonKeyEntropy, a, 0), math.Log10(2); math.Abs(got-want) > eps {
		t.Errorf("entropy after update = %v, want %v", got, want)
	}
	if got := set2.NonKey(score.NonKeyCoverage, a, 0); got != 3 {
		t.Errorf("coverage after update = %v, want 3", got)
	}
}

func TestParallelEdgesDoNotChangeValueSets(t *testing.T) {
	var g dynamic.Graph
	a := g.Type("A")
	c := g.Type("C")
	r, _ := g.RelType("r", a, c)
	x := g.Entity("x", a)
	y := g.Entity("y", c)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(x, y, r); err != nil {
			t.Fatal(err)
		}
	}
	set, err := g.Scores(score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Coverage counts all three instances; entropy sees one tuple with one
	// value set.
	if got := set.NonKey(score.NonKeyCoverage, a, 0); got != 3 {
		t.Errorf("coverage = %v, want 3 (multigraph)", got)
	}
	if got := set.NonKey(score.NonKeyEntropy, a, 0); got != 0 {
		t.Errorf("entropy = %v, want 0 (single tuple)", got)
	}
}

func TestDynamicErrors(t *testing.T) {
	var g dynamic.Graph
	a := g.Type("A")
	if _, err := g.RelType("r", a, graph.TypeID(5)); err == nil {
		t.Error("bad endpoint should fail")
	}
	r, _ := g.RelType("ok", a, a)
	if err := g.AddEdge(0, 99, r); err == nil {
		t.Error("out-of-range entity should fail")
	}
	x := g.Entity("x", a)
	if err := g.AddEdge(x, x, graph.RelTypeID(9)); err == nil {
		t.Error("unknown relationship should fail")
	}
}

func TestStats(t *testing.T) {
	g := buildFig1Dynamic(t)
	st := g.Stats()
	if st.Types != 6 || st.RelTypes != 7 || st.Entities != 14 || st.Edges != 21 {
		t.Errorf("stats = %+v", st)
	}
}
