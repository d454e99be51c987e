package freebase_test

import (
	"testing"

	"github.com/uta-db/previewtables/internal/eval"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
)

// smallOpts keeps unit-test generation fast.
func smallOpts() freebase.GenOptions {
	return freebase.GenOptions{Scale: 1e-4, Seed: 42, MinEntities: 400, MinEdges: 1500}
}

func TestSchemaSizesMatchTable2(t *testing.T) {
	want := map[string][2]int{
		"books":        {91, 201},
		"film":         {63, 136},
		"music":        {69, 176},
		"tv":           {59, 177},
		"people":       {45, 78},
		"basketball":   {6, 21},
		"architecture": {23, 48},
	}
	for _, domain := range freebase.Domains() {
		g, err := freebase.Generate(domain, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", domain, err)
		}
		st := g.Stats()
		if st.Types != want[domain][0] || st.RelTypes != want[domain][1] {
			t.Errorf("%s schema = (%d, %d), want %v (Table 2)", domain, st.Types, st.RelTypes, want[domain])
		}
	}
}

func TestGeneratedGraphsValidate(t *testing.T) {
	for _, domain := range freebase.Domains() {
		g, err := freebase.Generate(domain, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", domain, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", domain, err)
		}
		if g.NumEntities() < 100 {
			t.Errorf("%s: only %d entities", domain, g.NumEntities())
		}
		if g.NumEdges() < g.NumEntities() {
			t.Errorf("%s: %d edges below entity count %d", domain, g.NumEdges(), g.NumEntities())
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a, err := freebase.Generate("film", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := freebase.Generate("film", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same seed, different stats: %v vs %v", a.Stats(), b.Stats())
	}
	// Spot-check structural equality through a few entity degree counts.
	for i := 0; i < 50 && i < a.NumEntities(); i++ {
		id := graph.EntityID(i)
		if outDegree(a, id) != outDegree(b, id) || a.EntityName(id) != b.EntityName(id) {
			t.Fatalf("entity %d differs between runs", i)
		}
	}
}

// outDegree counts e's outgoing edges, parallel copies included, by a
// scan of the edge list.
func outDegree(g *graph.EntityGraph, e graph.EntityID) int {
	n := 0
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(graph.EdgeID(i)).From == e {
			n++
		}
	}
	return n
}

func TestDifferentSeedsDiffer(t *testing.T) {
	opts := smallOpts()
	a, err := freebase.Generate("film", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 43
	b, err := freebase.Generate("film", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEntities() == b.NumEntities() && a.NumEdges() == b.NumEdges() {
		t.Log("sizes happen to match; checking degrees")
		same := true
		for i := 0; i < 100 && i < a.NumEntities(); i++ {
			if outDegree(a, graph.EntityID(i)) != outDegree(b, graph.EntityID(i)) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced an identical-looking graph")
		}
	}
}

func TestGoldTypesExistInGraph(t *testing.T) {
	for _, domain := range freebase.GoldDomains() {
		g, err := freebase.Generate(domain, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range freebase.GoldKeys(domain) {
			tid, ok := g.TypeByName(key)
			if !ok {
				t.Errorf("%s: gold key %q missing from graph", domain, key)
				continue
			}
			// Each gold non-key must correspond to an incident relationship
			// type with that surface name.
			incident := map[string]bool{}
			for _, r := range g.IncidentRelTypes(tid) {
				incident[g.RelType(r).Name] = true
			}
			for _, nk := range freebase.GoldNonKeys(domain, key) {
				if !incident[nk] {
					t.Errorf("%s: gold non-key %q not incident on %q", domain, nk, key)
				}
			}
		}
		for _, ek := range freebase.ExpertKeys(domain) {
			if _, ok := g.TypeByName(ek); !ok {
				t.Errorf("%s: expert key %q missing from graph", domain, ek)
			}
		}
	}
}

func TestGoldSize(t *testing.T) {
	cases := map[string][2]int{
		"books":  {6, 15},
		"film":   {6, 9},
		"music":  {6, 18},
		"tv":     {6, 9},
		"people": {6, 16},
	}
	for domain, want := range cases {
		k, n := freebase.GoldSize(domain)
		if k != want[0] || n != want[1] {
			t.Errorf("%s gold size = (%d, %d), want %v (Table 10)", domain, k, n, want)
		}
	}
	if k, n := freebase.GoldSize("basketball"); k != 0 || n != 0 {
		t.Error("basketball has no gold standard")
	}
}

func TestCrossPrecisionMatchesTables22And23(t *testing.T) {
	// Evaluating the Freebase gold ranking against the Experts set must
	// reproduce Table 22; the reverse must reproduce Table 23.
	table22 := map[string][6]float64{
		"books":  {1, 0.5, 1.0 / 3, 0.25, 0.2, 1.0 / 3},
		"film":   {1, 0.5, 1.0 / 3, 0.5, 0.6, 0.5},
		"music":  {1, 1, 1, 1, 1, 5.0 / 6},
		"tv":     {1, 1, 1, 0.75, 0.6, 0.5},
		"people": {1, 1, 2.0 / 3, 0.5, 0.6, 0.5},
	}
	table23 := map[string][6]float64{
		"books":  {1, 1, 2.0 / 3, 0.5, 0.4, 1.0 / 3},
		"film":   {1, 0.5, 2.0 / 3, 0.75, 0.6, 0.5},
		"music":  {1, 1, 1, 1, 0.8, 5.0 / 6},
		"tv":     {1, 1, 2.0 / 3, 0.75, 0.6, 0.5},
		"people": {1, 0.5, 2.0 / 3, 0.75, 0.6, 0.5},
	}
	const tol = 0.01 // the paper rounds (e.g. 0.334, 0.664)
	for _, domain := range freebase.GoldDomains() {
		fb := freebase.GoldKeys(domain)
		ex := freebase.ExpertKeys(domain)
		fbSet := eval.NewGold(fb...)
		exSet := eval.NewGold(ex...)
		for k := 1; k <= 6; k++ {
			if got, want := eval.PrecisionAtK(fb, exSet, k), table22[domain][k-1]; abs(got-want) > tol {
				t.Errorf("%s Table 22 P@%d = %v, want %v", domain, k, got, want)
			}
			if got, want := eval.PrecisionAtK(ex, fbSet, k), table23[domain][k-1]; abs(got-want) > tol {
				t.Errorf("%s Table 23 P@%d = %v, want %v", domain, k, got, want)
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSubsetTypesShareEntities(t *testing.T) {
	g, err := freebase.Generate("people", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	person, ok := g.TypeByName("PERSON")
	if !ok {
		t.Fatal("PERSON missing")
	}
	deceased, ok := g.TypeByName("DECEASED PERSON")
	if !ok {
		t.Fatal("DECEASED PERSON missing")
	}
	if g.TypeCoverage(deceased) >= g.TypeCoverage(person) {
		t.Errorf("DECEASED PERSON (%d) should be smaller than PERSON (%d)",
			g.TypeCoverage(deceased), g.TypeCoverage(person))
	}
	// Every deceased person is a person.
	for _, e := range g.EntitiesOfType(deceased) {
		if !g.HasType(e, person) {
			t.Fatalf("deceased entity %q lacks PERSON", g.EntityName(e))
		}
	}
}

func TestUnknownDomain(t *testing.T) {
	if _, err := freebase.Generate("cooking", smallOpts()); err == nil {
		t.Error("unknown domain should fail")
	}
	if freebase.GoldKeys("cooking") != nil || freebase.ExpertKeys("cooking") != nil {
		t.Error("unknown domain gold accessors should return nil")
	}
	if _, _, ok := freebase.PaperSchemaSize("cooking"); ok {
		t.Error("unknown domain PaperSchemaSize should report !ok")
	}
}

func TestPaperSizes(t *testing.T) {
	v, e, ok := freebase.PaperGraphSize("music")
	if !ok || v != 27_000_000 || e != 187_000_000 {
		t.Errorf("music paper size = (%d, %d, %v)", v, e, ok)
	}
	k, n, ok := freebase.PaperSchemaSize("film")
	if !ok || k != 63 || n != 136 {
		t.Errorf("film schema size = (%d, %d, %v)", k, n, ok)
	}
}

func TestSkewProducesEmptyAndMultiValuedCells(t *testing.T) {
	// The value distributions must include empty cells and multi-valued
	// cells (as in Fig. 2) for entropy to be meaningful.
	g, err := freebase.Generate("film", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	film, _ := g.TypeByName("FILM")
	s := g.Schema()
	var genres graph.Incidence
	found := false
	for _, inc := range s.Incident(film) {
		if s.RelType(inc.Rel).Name == "Genres" && inc.Outgoing {
			genres = inc
			found = true
		}
	}
	if !found {
		t.Fatal("Genres not incident on FILM")
	}
	var empty, multi int
	for _, e := range g.EntitiesOfType(film) {
		vals := g.Neighbors(e, genres.Rel, genres.Outgoing)
		switch {
		case len(vals) == 0:
			empty++
		case len(vals) > 1:
			multi++
		}
	}
	if empty == 0 {
		t.Error("no FILM has an empty Genres cell")
	}
	if multi == 0 {
		t.Error("no FILM has a multi-valued Genres cell")
	}
}

func TestTargetEntitiesScaleKnob(t *testing.T) {
	// TargetEntities overrides Scale: the generated population lands near
	// the requested entity count while the schema keeps its exact Table 2
	// sizes — the knob changes scale, never shape.
	const want = 25_000
	g, err := freebase.Generate("music", freebase.GenOptions{
		TargetEntities: want, Seed: 42, MinEntities: 400, MinEdges: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := g.NumEntities()
	if got < want*7/10 || got > want*13/10 {
		t.Fatalf("TargetEntities=%d generated %d entities, want within ±30%%", want, got)
	}
	if g.NumTypes() != 69 || g.NumRelTypes() != 176 {
		t.Fatalf("schema drifted: %d types, %d rel types; want 69, 176 (Table 2)", g.NumTypes(), g.NumRelTypes())
	}
	// Edges scale with the same factor: music's paper edge/entity ratio is
	// ~6.9, so the edge count must grow far past the MinEdges floor.
	if g.NumEdges() < 2*want {
		t.Fatalf("edge budget did not scale with TargetEntities: %d edges for %d entities", g.NumEdges(), got)
	}

	// A Scale value yielding the same factor produces the identical graph:
	// the knob is sugar, not a second code path.
	h, err := freebase.Generate("music", freebase.GenOptions{
		Scale: float64(want) / 27_000_000, Seed: 42, MinEntities: 400, MinEdges: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEntities() != g.NumEntities() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("TargetEntities and equivalent Scale diverge: %d/%d entities, %d/%d edges",
			g.NumEntities(), h.NumEntities(), g.NumEdges(), h.NumEdges())
	}
}
