package graph_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/graph/graphtest"
)

func fig1Schema(t *testing.T) (*graph.EntityGraph, *graph.Schema) {
	t.Helper()
	g := fig1.Graph()
	return g, g.Schema()
}

func schemaType(t *testing.T, s *graph.Schema, name string) graph.TypeID {
	t.Helper()
	id, ok := s.TypeByName(name)
	if !ok {
		t.Fatalf("schema type %q not found", name)
	}
	return id
}

func TestSchemaSizes(t *testing.T) {
	_, s := fig1Schema(t)
	if s.NumTypes() != 6 {
		t.Errorf("schema |Vs| = %d, want 6", s.NumTypes())
	}
	if s.NumRelTypes() != 7 {
		t.Errorf("schema |Es| = %d, want 7", s.NumRelTypes())
	}
}

func TestSchemaWeights(t *testing.T) {
	// The paper's random-walk example fixes the undirected weights around
	// FILM: Genre 5, Actor 6, Director 4, Producer 3 (total 18).
	_, s := fig1Schema(t)
	film := schemaType(t, s, fig1.Film)
	neighbors, weights := s.Neighbors(film)
	got := map[string]float64{}
	for i, n := range neighbors {
		got[s.TypeName(n)] = weights[i]
	}
	want := map[string]float64{
		fig1.FilmGenre:    5,
		fig1.FilmActor:    6,
		fig1.FilmDirector: 4,
		fig1.FilmProducer: 3,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("w(FILM, %s) = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("FILM neighbors = %v, want exactly %v", got, want)
	}
	if tw := s.TotalWeight(film); tw != 18 {
		t.Errorf("total weight of FILM = %v, want 18", tw)
	}
}

func TestSchemaMergesParallelRelTypes(t *testing.T) {
	// Producer and Executive Producer both connect FILM PRODUCER and FILM;
	// the undirected view merges them into one weighted edge (2+1=3).
	_, s := fig1Schema(t)
	producer := schemaType(t, s, fig1.FilmProducer)
	neighbors, weights := s.Neighbors(producer)
	if len(neighbors) != 1 {
		t.Fatalf("FILM PRODUCER neighbors = %d, want 1", len(neighbors))
	}
	if s.TypeName(neighbors[0]) != fig1.Film || weights[0] != 3 {
		t.Errorf("merged edge = (%s, %v), want (FILM, 3)", s.TypeName(neighbors[0]), weights[0])
	}
}

func TestSchemaDistances(t *testing.T) {
	// Sec. 4: dist(FILM, FILM ACTOR) = 1 and dist(FILM, AWARD) = 2.
	_, s := fig1Schema(t)
	m := s.AllDistances()
	film := schemaType(t, s, fig1.Film)
	actor := schemaType(t, s, fig1.FilmActor)
	award := schemaType(t, s, fig1.Award)
	if d := m.Dist(film, actor); d != 1 {
		t.Errorf("dist(FILM, FILM ACTOR) = %d, want 1", d)
	}
	if d := m.Dist(film, award); d != 2 {
		t.Errorf("dist(FILM, AWARD) = %d, want 2", d)
	}
	if d := m.Dist(film, film); d != 0 {
		t.Errorf("dist(FILM, FILM) = %d, want 0", d)
	}
}

func TestSchemaIncidentOrientations(t *testing.T) {
	_, s := fig1Schema(t)
	film := schemaType(t, s, fig1.Film)
	incs := s.Incident(film)
	if len(incs) != 5 {
		t.Fatalf("Γ(FILM) size = %d, want 5", len(incs))
	}
	var outgoing, incoming int
	for _, inc := range incs {
		if inc.Outgoing {
			outgoing++
			if s.RelType(inc.Rel).From != film {
				t.Error("outgoing incidence should have From = FILM")
			}
		} else {
			incoming++
			if s.RelType(inc.Rel).To != film {
				t.Error("incoming incidence should have To = FILM")
			}
		}
	}
	if outgoing != 1 || incoming != 4 {
		t.Errorf("FILM incidences: %d outgoing, %d incoming; want 1, 4", outgoing, incoming)
	}
}

func TestOtherEnd(t *testing.T) {
	_, s := fig1Schema(t)
	film := schemaType(t, s, fig1.Film)
	genre := schemaType(t, s, fig1.FilmGenre)
	for _, inc := range s.Incident(film) {
		r := s.RelType(inc.Rel)
		if r.Name == fig1.RelGenres {
			if got := s.OtherEnd(inc); got != genre {
				t.Errorf("OtherEnd(Genres from FILM) = %s, want FILM GENRE", s.TypeName(got))
			}
		}
	}
	for _, inc := range s.Incident(genre) {
		if got := s.OtherEnd(inc); got != film {
			t.Errorf("OtherEnd(Genres from FILM GENRE) = %s, want FILM", s.TypeName(got))
		}
	}
}

func TestNewSchemaDirect(t *testing.T) {
	// Structure-only schema (unit weights) as used by the NP-hardness
	// reductions: a path a-b-c.
	s, err := graph.NewSchema([]string{"a", "b", "c"}, []graph.RelType{
		{Name: "r1", From: 0, To: 1},
		{Name: "r2", From: 1, To: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := s.AllDistances()
	if d := m.Dist(0, 2); d != 2 {
		t.Errorf("dist(a,c) = %d, want 2", d)
	}
	if w := s.TotalWeight(1); w != 2 {
		t.Errorf("total weight of b = %v, want 2 (unit weights)", w)
	}
}

// TestSchemaSharedAcrossGoroutines: a graph has one schema, made with
// it. Concurrent calls all get one pointer, and it equals a fresh
// derivation through NewSchema from the graph's types and rel types.
func TestSchemaSharedAcrossGoroutines(t *testing.T) {
	g := fig1.Graph()
	got := make([]*graph.Schema, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = g.Schema()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, s := range got {
		if s == nil || s != got[0] {
			t.Fatalf("goroutine %d got schema %p, goroutine 0 got %p", i, s, got[0])
		}
	}
	if s := g.Schema(); s != got[0] {
		t.Fatalf("a later call got schema %p, want the shared %p", s, got[0])
	}

	names := make([]string, g.NumTypes())
	for i := range names {
		names[i] = g.TypeName(graph.TypeID(i))
	}
	rels := make([]graph.RelType, g.NumRelTypes())
	for i := range rels {
		rels[i] = g.RelType(graph.RelTypeID(i))
	}
	fresh, err := graph.NewSchema(names, rels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got[0]) {
		t.Error("shared schema differs from a fresh derivation")
	}
}

func TestNewSchemaRejectsOutOfRange(t *testing.T) {
	_, err := graph.NewSchema([]string{"a"}, []graph.RelType{{Name: "r", From: 0, To: 5}})
	if err == nil {
		t.Error("NewSchema should reject out-of-range endpoints")
	}
}

func TestDisconnectedSchemaDistances(t *testing.T) {
	s, err := graph.NewSchema([]string{"a", "b", "c", "d"}, []graph.RelType{
		{Name: "r1", From: 0, To: 1},
		{Name: "r2", From: 2, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := s.AllDistances()
	if d := m.Dist(0, 2); d != -1 {
		t.Errorf("dist across components = %d, want -1", d)
	}
	if d := m.Dist(0, 1); d != 1 {
		t.Errorf("dist(a,b) = %d, want 1", d)
	}
}

func TestSelfLoopSchema(t *testing.T) {
	// TV EPISODE -> TV EPISODE ("Previous episode") style self loop.
	s, err := graph.NewSchema([]string{"ep"}, []graph.RelType{
		{Name: "prev", From: 0, To: 0, EdgeCount: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	incs := s.Incident(0)
	if len(incs) != 2 {
		t.Fatalf("self loop incidences = %d, want 2 (both orientations)", len(incs))
	}
	if s.OtherEnd(incs[0]) != 0 || s.OtherEnd(incs[1]) != 0 {
		t.Error("self loop other end should be the same type")
	}
	neighbors, weights := s.Neighbors(0)
	if len(neighbors) != 1 || neighbors[0] != 0 || weights[0] != 7 {
		t.Errorf("self loop undirected view = (%v, %v), want ([0], [7])", neighbors, weights)
	}
}

// randomSchema builds a random connected-ish schema for property tests.
func randomSchema(rng *rand.Rand, nTypes, nRels int) *graph.Schema {
	names := make([]string, nTypes)
	for i := range names {
		names[i] = string(rune('A' + i%26))
	}
	rels := make([]graph.RelType, nRels)
	for i := range rels {
		rels[i] = graph.RelType{
			Name:      "r",
			From:      graph.TypeID(rng.Intn(nTypes)),
			To:        graph.TypeID(rng.Intn(nTypes)),
			EdgeCount: rng.Intn(10) + 1,
		}
	}
	s, err := graph.NewSchema(names, rels)
	if err != nil {
		panic(err)
	}
	return s
}

func TestDistanceMatrixProperties(t *testing.T) {
	// Distance is symmetric and satisfies the triangle inequality on every
	// random schema.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		s := randomSchema(rng, n, rng.Intn(20)+1)
		m := s.AllDistances()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				ab := m.Dist(graph.TypeID(a), graph.TypeID(b))
				ba := m.Dist(graph.TypeID(b), graph.TypeID(a))
				if ab != ba {
					return false
				}
				if a == b && ab != 0 {
					return false
				}
				for c := 0; c < n; c++ {
					ac := m.Dist(graph.TypeID(a), graph.TypeID(c))
					cb := m.Dist(graph.TypeID(c), graph.TypeID(b))
					if ac >= 0 && cb >= 0 && ab >= 0 && ab > ac+cb {
						return false
					}
					if ac >= 0 && cb >= 0 && ab < 0 {
						return false // connected through c but reported disconnected
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDiameter(t *testing.T) {
	s, err := graph.NewSchema([]string{"a", "b", "c", "d"}, []graph.RelType{
		{Name: "r", From: 0, To: 1},
		{Name: "r", From: 1, To: 2},
		{Name: "r", From: 2, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	diam, avg := s.AllDistances().Diameter()
	if diam != 3 {
		t.Errorf("diameter = %d, want 3", diam)
	}
	// Pairs: ab=1 ac=2 ad=3 bc=1 bd=2 cd=1 → avg = 10/6.
	if want := 10.0 / 6.0; avg < want-1e-9 || avg > want+1e-9 {
		t.Errorf("avg distance = %v, want %v", avg, want)
	}
}

func TestSchemaWeightSymmetry(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		s := randomSchema(rng, n, rng.Intn(16)+1)
		for a := 0; a < n; a++ {
			na, wa := s.Neighbors(graph.TypeID(a))
			for i, b := range na {
				if graph.TypeID(a) == b {
					continue // self loop: single entry
				}
				nb, wb := s.Neighbors(b)
				found := false
				for j, back := range nb {
					if back == graph.TypeID(a) {
						found = wb[j] == wa[i]
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refSchema is the schema builder as it was before its lists were cut
// from slabs: Γτ appended per type, and each type's undirected weights
// summed in a map of its own, in relationship-id order, then listed in
// ascending type order. It returns each type's incidences, neighbors and
// weights.
func refSchema(numTypes int, rels []graph.RelType) ([][]graph.Incidence, [][]graph.TypeID, [][]float64) {
	incident := make([][]graph.Incidence, numTypes)
	for ri, r := range rels {
		incident[r.From] = append(incident[r.From], graph.Incidence{Rel: graph.RelTypeID(ri), Outgoing: true})
	}
	for ri, r := range rels {
		incident[r.To] = append(incident[r.To], graph.Incidence{Rel: graph.RelTypeID(ri), Outgoing: false})
	}
	adj := make([]map[graph.TypeID]float64, numTypes)
	add := func(a, b graph.TypeID, w float64) {
		if adj[a] == nil {
			adj[a] = make(map[graph.TypeID]float64)
		}
		adj[a][b] += w
	}
	for _, r := range rels {
		w := float64(r.EdgeCount)
		if r.EdgeCount == 0 {
			w = 1
		}
		add(r.From, r.To, w)
		if r.From != r.To {
			add(r.To, r.From, w)
		}
	}
	neighbors := make([][]graph.TypeID, numTypes)
	weights := make([][]float64, numTypes)
	for t := range adj {
		for u := range adj[t] {
			neighbors[t] = append(neighbors[t], u)
		}
		sort.Slice(neighbors[t], func(i, j int) bool { return neighbors[t][i] < neighbors[t][j] })
		for _, u := range neighbors[t] {
			weights[t] = append(weights[t], adj[t][u])
		}
	}
	return incident, neighbors, weights
}

// TestSchemaMatchesMapReference: the schema of every graph of the layout
// corpus, and of seeded random schemas with parallel relationship types,
// self loops, zero edge counts and counts too large for a float64 to sum
// exactly in every order, lists the reference's incidences and neighbors,
// and its weights bit for bit (the random walk reads them).
func TestSchemaMatchesMapReference(t *testing.T) {
	var schemas []*graph.Schema
	gs, err := graphtest.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gs {
		schemas = append(schemas, n.Graph.Schema())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := rng.Intn(6) + 1
		names := make([]string, n)
		for j := range names {
			names[j] = string(rune('A' + j))
		}
		rels := make([]graph.RelType, rng.Intn(24))
		for j := range rels {
			rels[j] = graph.RelType{Name: "r", From: graph.TypeID(rng.Intn(n)), To: graph.TypeID(rng.Intn(n))}
			switch rng.Intn(3) {
			case 1:
				rels[j].EdgeCount = rng.Intn(10) + 1
			case 2:
				rels[j].EdgeCount = int(rng.Int63n(1 << 62))
			}
		}
		s, err := graph.NewSchema(names, rels)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, s)
	}
	for i, s := range schemas {
		rels := make([]graph.RelType, s.NumRelTypes())
		for r := range rels {
			rels[r] = s.RelType(graph.RelTypeID(r))
		}
		incident, neighbors, weights := refSchema(s.NumTypes(), rels)
		for ty := 0; ty < s.NumTypes(); ty++ {
			id := graph.TypeID(ty)
			if got := s.Incident(id); !slices.Equal(got, incident[ty]) || cap(got) != len(got) {
				t.Fatalf("schema %d, type %d: incidences %v (cap %d), want %v", i, ty, got, cap(got), incident[ty])
			}
			nb, w := s.Neighbors(id)
			if !slices.Equal(nb, neighbors[ty]) || len(w) != len(weights[ty]) {
				t.Fatalf("schema %d, type %d: neighbors %v weights %v, want %v %v", i, ty, nb, w, neighbors[ty], weights[ty])
			}
			for j := range w {
				if math.Float64bits(w[j]) != math.Float64bits(weights[ty][j]) {
					t.Fatalf("schema %d, type %d: weight %d is %v, want %v", i, ty, j, w[j], weights[ty][j])
				}
			}
		}
	}
}
