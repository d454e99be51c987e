package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// filmDirectorGenresTable builds Fig. 2's upper table: FILM keyed, with
// Director and Genres.
func filmDirectorGenresTable(t *testing.T, g *graph.EntityGraph) core.Table {
	t.Helper()
	s := g.Schema()
	film, _ := g.TypeByName(fig1.Film)
	var nonKeys []core.Candidate
	for _, inc := range s.Incident(film) {
		switch s.RelType(inc.Rel).Name {
		case fig1.RelDirector, fig1.RelGenres:
			nonKeys = append(nonKeys, core.Candidate{Inc: inc})
		}
	}
	if len(nonKeys) != 2 {
		t.Fatalf("expected 2 non-keys, got %d", len(nonKeys))
	}
	return core.Table{Key: film, NonKeys: nonKeys}
}

func TestMaterializeFig2UpperTable(t *testing.T) {
	g := fig1.Graph()
	tb := filmDirectorGenresTable(t, g)
	tuples := core.MaterializeAll(g, &tb)
	if len(tuples) != 4 {
		t.Fatalf("tuples = %d, want 4 (|T| = |T.τ|)", len(tuples))
	}
	byName := map[string]core.Tuple{}
	for _, tu := range tuples {
		byName[g.EntityName(tu.Key)] = tu
	}

	// t1 = 〈Men in Black, Barry Sonnenfeld, {Action Film, Science Fiction}〉.
	mib := byName["Men in Black"]
	if len(mib.Values) != 2 {
		t.Fatalf("values per tuple = %d, want 2", len(mib.Values))
	}
	var director, genres []graph.EntityID
	s := g.Schema()
	for i, c := range tb.NonKeys {
		if s.RelType(c.Inc.Rel).Name == fig1.RelDirector {
			director = mib.Values[i]
		} else {
			genres = mib.Values[i]
		}
	}
	if len(director) != 1 || g.EntityName(director[0]) != "Barry Sonnenfeld" {
		t.Errorf("t1.Director = %v", director)
	}
	if len(genres) != 2 {
		t.Errorf("t1.Genres = %d values, want 2 (multi-valued)", len(genres))
	}

	// t3 = 〈Hancock, Peter Berg, -〉: empty Genres value.
	hancock := byName["Hancock"]
	for i, c := range tb.NonKeys {
		if s.RelType(c.Inc.Rel).Name == fig1.RelGenres && len(hancock.Values[i]) != 0 {
			t.Errorf("t3.Genres = %v, want empty", hancock.Values[i])
		}
	}
}

func TestSampleRandom(t *testing.T) {
	g := fig1.Graph()
	tb := filmDirectorGenresTable(t, g)
	rng := rand.New(rand.NewSource(7))
	sample := core.SampleRandom(g, &tb, 2, rng)
	if len(sample) != 2 {
		t.Fatalf("sample size = %d, want 2", len(sample))
	}
	// Sampling without replacement: distinct keys.
	if sample[0].Key == sample[1].Key {
		t.Error("sample contains duplicate tuple")
	}
	// Oversampling returns everything.
	if got := core.SampleRandom(g, &tb, 99, rng); len(got) != 4 {
		t.Errorf("oversample size = %d, want 4", len(got))
	}
}

// keyedTables builds one entity type per size, with that many entities,
// and returns the graph plus one attribute-less table per type: the
// sampled keys are then the whole observable output of SampleRandom.
func keyedTables(t *testing.T, sizes ...int) (*graph.EntityGraph, []core.Table) {
	t.Helper()
	var b graph.Builder
	types := make([]graph.TypeID, len(sizes))
	for i, n := range sizes {
		types[i] = b.Type(fmt.Sprintf("T%d", i))
		for e := 0; e < n; e++ {
			b.Entity(fmt.Sprintf("t%d-e%d", i, e), types[i])
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]core.Table, len(types))
	for i, ty := range types {
		tables[i] = core.Table{Key: ty}
	}
	return g, tables
}

// permSample is the sampling contract written with the materialized
// permutation: every entity when count covers the type (and no draws),
// otherwise the sorted first count slots of rng.Perm(n).
func permSample(ents []graph.EntityID, count int, rng *rand.Rand) []graph.EntityID {
	if count >= len(ents) {
		return ents
	}
	idx := rng.Perm(len(ents))[:count]
	sort.Ints(idx)
	keys := make([]graph.EntityID, count)
	for i, j := range idx {
		keys[i] = ents[j]
	}
	return keys
}

// TestSampleRandomMatchesPerm pins SampleRandom to rand.Perm: the same
// sample and the same rng state afterwards, so rendered tuples (and the
// tables sampled after them from the same stream) never move.
func TestSampleRandomMatchesPerm(t *testing.T) {
	sizes := []int{1, 2, 64, 101, 20011}
	g, tables := keyedTables(t, sizes...)
	type draw struct{ table, count int }
	var cases [][]draw
	for ti, n := range sizes {
		for _, count := range []int{0, 1, n - 1, n, n + 1} {
			cases = append(cases, []draw{{ti, count}})
		}
	}
	// Two tables back to back from one stream, as a preview samples them.
	cases = append(cases, []draw{{4, 5}, {3, 5}})
	for _, seed := range []int64{1, 7, 1009} {
		for _, c := range cases {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for _, d := range c {
				tb := &tables[d.table]
				sample := core.SampleRandom(g, tb, d.count, got)
				ref := permSample(g.EntitiesOfType(tb.Key), d.count, want)
				keys := make([]graph.EntityID, len(sample))
				for i, tu := range sample {
					keys[i] = tu.Key
				}
				if !reflect.DeepEqual(keys, ref) {
					t.Fatalf("seed %d, draws %v: n=%d count=%d sampled %v, Perm gives %v",
						seed, c, sizes[d.table], d.count, firstKeys(keys), firstKeys(ref))
				}
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d, draws %v: next Int63 %d after SampleRandom, %d after Perm", seed, c, a, b)
			}
		}
	}
}

func firstKeys(keys []graph.EntityID) []graph.EntityID {
	if len(keys) > 8 {
		return keys[:8]
	}
	return keys
}

func TestSampleRepresentativeCoversValues(t *testing.T) {
	g := fig1.Graph()
	tb := filmDirectorGenresTable(t, g)
	sample := core.SampleRepresentative(g, &tb, 3)
	if len(sample) != 3 {
		t.Fatalf("sample size = %d, want 3", len(sample))
	}
	// Three representative tuples must expose all three directors — a
	// random sample might repeat Barry Sonnenfeld's films, but the greedy
	// selection maximizes novel values.
	s := g.Schema()
	var di int
	for i, c := range tb.NonKeys {
		if s.RelType(c.Inc.Rel).Name == fig1.RelDirector {
			di = i
		}
	}
	directors := map[string]bool{}
	for _, tu := range sample {
		for _, v := range tu.Values[di] {
			directors[g.EntityName(v)] = true
		}
	}
	if len(directors) != 3 {
		t.Errorf("representative sample exposes directors %v, want all 3", directors)
	}
}

func TestSampleRepresentativeOversample(t *testing.T) {
	g := fig1.Graph()
	tb := filmDirectorGenresTable(t, g)
	if got := core.SampleRepresentative(g, &tb, 99); len(got) != 4 {
		t.Errorf("oversample size = %d, want 4", len(got))
	}
}

func TestSuggestSize(t *testing.T) {
	g := fig1.Graph()
	s := g.Schema()
	c := core.SuggestSize(s, 16)
	if c.K < 1 || c.N < c.K {
		t.Errorf("suggested constraint invalid: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("suggested constraint fails validation: %v", err)
	}
	// Tiny budget still yields a valid single-table constraint.
	c = core.SuggestSize(s, 1)
	if c.K != 1 || c.N < 1 {
		t.Errorf("tiny budget constraint = %+v", c)
	}
	// k never exceeds usable types.
	c = core.SuggestSize(s, 1000)
	if c.K > 6 {
		t.Errorf("k = %d exceeds the 6 usable types", c.K)
	}
}

func TestSuggestSizeEmptySchema(t *testing.T) {
	s, err := graph.NewSchema([]string{"lonely"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := core.SuggestSize(s, 10)
	if c.K != 0 {
		t.Errorf("schema with no relationships should suggest k=0, got %+v", c)
	}
}

func TestSuggestDistanceMode(t *testing.T) {
	g := fig1.Graph()
	sug := core.SuggestDistanceMode(g.Schema())
	if sug.TightD < 1 {
		t.Errorf("tight d = %d, want ≥ 1", sug.TightD)
	}
	if sug.DiverseD <= sug.TightD {
		t.Errorf("diverse d = %d should exceed tight d = %d", sug.DiverseD, sug.TightD)
	}
	// Fig. 3 has diameter 2: both bounds stay within it.
	if sug.TightD > 2 || sug.DiverseD > 2 {
		t.Errorf("suggestion exceeds diameter 2: %+v", sug)
	}
	// Verify the suggested constraints are actually satisfiable.
	set := score.Compute(g, score.DefaultWalkOptions())
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	if _, err := d.Apriori(core.Constraint{K: 2, N: 4, Mode: core.Tight, D: sug.TightD}); err != nil {
		t.Errorf("suggested tight constraint unsatisfiable: %v", err)
	}
	if _, err := d.Apriori(core.Constraint{K: 2, N: 4, Mode: core.Diverse, D: sug.DiverseD}); err != nil {
		t.Errorf("suggested diverse constraint unsatisfiable: %v", err)
	}
}

func TestSuggestDistanceModeElongated(t *testing.T) {
	// A long path should prefer Diverse.
	names := make([]string, 12)
	rels := make([]graph.RelType, 0, 11)
	for i := range names {
		names[i] = string(rune('a' + i))
		if i > 0 {
			rels = append(rels, graph.RelType{Name: "r", From: graph.TypeID(i - 1), To: graph.TypeID(i)})
		}
	}
	s, err := graph.NewSchema(names, rels)
	if err != nil {
		t.Fatal(err)
	}
	if sug := core.SuggestDistanceMode(s); sug.Preferred != core.Diverse {
		t.Errorf("elongated schema should prefer Diverse, got %v", sug.Preferred)
	}
	// A star should prefer Tight.
	star := make([]graph.RelType, 0, 11)
	for i := 1; i < 12; i++ {
		star = append(star, graph.RelType{Name: "r", From: 0, To: graph.TypeID(i)})
	}
	s2, err := graph.NewSchema(names, star)
	if err != nil {
		t.Fatal(err)
	}
	if sug := core.SuggestDistanceMode(s2); sug.Preferred != core.Tight {
		t.Errorf("star schema should prefer Tight, got %v", sug.Preferred)
	}
}
