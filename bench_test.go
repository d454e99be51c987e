package previewtables_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact end to end), plus ablation
// benchmarks for the design decisions called out in DESIGN.md and
// micro-benchmarks of the core substrate.
//
// Domains are generated once per process at a laptop-friendly scale and
// shared; `go test -bench=. -benchmem` therefore measures computation, not
// data generation (except in the generation benchmarks themselves).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/experiments"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/study"
	"github.com/uta-db/previewtables/internal/triple"
	"github.com/uta-db/previewtables/internal/yps09"
)

var benchGen = freebase.GenOptions{Scale: 2e-4, Seed: 77, MinEntities: 800, MinEdges: 4000}

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchGraphs map[string]*graph.EntityGraph
	benchDiscs  map[string]*core.Discoverer
)

func benchSetup(b *testing.B) (*experiments.Runner, map[string]*graph.EntityGraph, map[string]*core.Discoverer) {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = experiments.New(experiments.Config{
			Gen:                 benchGen,
			Seed:                77,
			Repeats:             1,
			BFSubsetCap:         5e5,
			AprioriCandidateCap: 5e5,
		})
		benchGraphs = map[string]*graph.EntityGraph{}
		benchDiscs = map[string]*core.Discoverer{}
		for _, domain := range freebase.Domains() {
			g, err := freebase.Generate(domain, benchGen)
			if err != nil {
				panic(err)
			}
			benchGraphs[domain] = g
			set := score.Compute(g, score.DefaultWalkOptions())
			benchDiscs[domain] = core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
		}
	})
	return benchRunner, benchGraphs, benchDiscs
}

func runTable(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	if len(t.Rows) == 0 {
		b.Fatal("empty table")
	}
}

func runFigure(b *testing.B, f func() (*experiments.Figure, error)) {
	b.Helper()
	fig, err := f()
	if err != nil {
		b.Fatal(err)
	}
	if len(fig.Panels) == 0 {
		b.Fatal("empty figure")
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkTable2_DomainGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, domain := range freebase.Domains() {
			if _, err := freebase.Generate(domain, benchGen); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable3_NonKeyMRR(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table3)
	}
}

func BenchmarkTable4_CrowdPCC(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table4)
	}
}

func BenchmarkFigure5_KeyPrecisionAtK(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFigure(b, r.Figure5)
	}
}

func BenchmarkFigure6_KeyAvgP(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFigure(b, r.Figure6)
	}
}

func BenchmarkFigure7_KeyNDCG(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFigure(b, r.Figure7)
	}
}

// Figure 8's underlying algorithm invocations, one sub-benchmark per curve
// point family: brute force vs dynamic programming on concise previews.
func BenchmarkFigure8_ConciseDiscovery(b *testing.B) {
	_, _, discs := benchSetup(b)
	cases := []struct {
		name   string
		domain string
		run    func(d *core.Discoverer) error
	}{
		{"BruteForce/basketball-k5-n10", "basketball", func(d *core.Discoverer) error {
			_, err := d.BruteForce(core.Constraint{K: 5, N: 10, Mode: core.Concise})
			return err
		}},
		{"BruteForce/architecture-k5-n10", "architecture", func(d *core.Discoverer) error {
			_, err := d.BruteForce(core.Constraint{K: 5, N: 10, Mode: core.Concise})
			return err
		}},
		{"BruteForce/music-k4-n10", "music", func(d *core.Discoverer) error {
			_, err := d.BruteForce(core.Constraint{K: 4, N: 10, Mode: core.Concise})
			return err
		}},
		{"DP/music-k5-n10", "music", func(d *core.Discoverer) error {
			_, err := d.DynamicProgramming(core.Constraint{K: 5, N: 10, Mode: core.Concise})
			return err
		}},
		{"DP/music-k9-n20", "music", func(d *core.Discoverer) error {
			_, err := d.DynamicProgramming(core.Constraint{K: 9, N: 20, Mode: core.Concise})
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := discs[c.domain]
			for i := 0; i < b.N; i++ {
				if err := c.run(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Figure 9's underlying invocations: brute force vs Apriori on tight and
// diverse previews.
func BenchmarkFigure9_DistanceDiscovery(b *testing.B) {
	_, _, discs := benchSetup(b)
	cases := []struct {
		name   string
		domain string
		c      core.Constraint
		apri   bool
	}{
		{"Apriori/music-tight-k6-d2", "music", core.Constraint{K: 6, N: 16, Mode: core.Tight, D: 2}, true},
		{"Apriori/music-diverse-k5-d4", "music", core.Constraint{K: 5, N: 10, Mode: core.Diverse, D: 4}, true},
		{"Apriori/basketball-tight-k5-d2", "basketball", core.Constraint{K: 5, N: 10, Mode: core.Tight, D: 2}, true},
		{"BruteForce/music-tight-k4-d2", "music", core.Constraint{K: 4, N: 10, Mode: core.Tight, D: 2}, false},
		{"BruteForce/basketball-diverse-k5-d4", "basketball", core.Constraint{K: 5, N: 10, Mode: core.Diverse, D: 4}, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := discs[c.domain]
			for i := 0; i < b.N; i++ {
				var err error
				if c.apri {
					_, err = d.Apriori(c.c)
				} else {
					_, err = d.BruteForce(c.c)
				}
				if err != nil && err != core.ErrNoPreview {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable5_StudyConversion(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["music"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.RunDomain(g, "music", study.Config{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_MedianTimes(b *testing.B) {
	r, _, _ := benchSetup(b)
	if _, err := r.Table5(); err != nil { // warm the study cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table6)
	}
}

func BenchmarkTable7_PairwiseZ(b *testing.B) {
	r, _, _ := benchSetup(b)
	if _, err := r.Table5(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table7)
	}
}

func BenchmarkTables13to16_PairwiseZ(b *testing.B) {
	r, _, _ := benchSetup(b)
	if _, err := r.Table5(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, domain := range []string{"books", "film", "tv", "people"} {
			runTable(b, func() (*experiments.Table, error) { return r.PairwiseZ(domain) })
		}
	}
}

func BenchmarkFigures10to14_TimeBoxplots(b *testing.B) {
	r, _, _ := benchSetup(b)
	if _, err := r.Table5(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, domain := range freebase.GoldDomains() {
			runTable(b, func() (*experiments.Table, error) { return r.TimeBoxplots(domain) })
		}
	}
}

func BenchmarkTable8_Questionnaire(b *testing.B) {
	r, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table8)
	}
}

func BenchmarkTable9_LikertRanking(b *testing.B) {
	r, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table9)
	}
}

func BenchmarkTables17to21_Likert(b *testing.B) {
	r, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, domain := range freebase.GoldDomains() {
			runTable(b, func() (*experiments.Table, error) { return r.Likert(domain) })
		}
	}
}

func BenchmarkTable10_GoldStandard(b *testing.B) {
	r, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table10)
	}
}

func BenchmarkTable11_SamplePreviews(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table11)
	}
}

func BenchmarkTable12_TightDiversePreviews(b *testing.B) {
	r, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTable(b, r.Table12)
	}
}

func BenchmarkTables22and23_CrossPrecision(b *testing.B) {
	r, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		runTable(b, r.Tables22and23)
	}
}

// --- Ablation benchmarks (DESIGN.md Sec. 5) ------------------------------

// Apriori level-wise candidate generation vs depth-first clique
// backtracking inside the same optimal tight-preview search.
func BenchmarkAblationCliqueEnumeration(b *testing.B) {
	_, _, discs := benchSetup(b)
	d := discs["music"]
	c := core.Constraint{K: 5, N: 12, Mode: core.Tight, D: 2}
	b.Run("Apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Apriori(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CliqueDFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.CliqueDFS(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Brute force vs DP on an instance small enough for both to run unaided.
func BenchmarkAblationDPvsBruteForce(b *testing.B) {
	_, _, discs := benchSetup(b)
	d := discs["architecture"]
	c := core.Constraint{K: 5, N: 10, Mode: core.Concise}
	b.Run("BruteForce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.BruteForce(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.DynamicProgramming(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// All-pairs distance precomputation vs per-query BFS.
func BenchmarkAblationDistanceMatrix(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	s := graphs["music"].Schema()
	b.Run("Precompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := s.AllDistances()
			_ = m.Dist(0, graph.TypeID(s.NumTypes()-1))
		}
	})
	b.Run("PerQueryBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < s.NumTypes(); t++ {
				_ = s.Distances(graph.TypeID(t))
			}
		}
	})
}

// Cost of the entropy measure (tuple materialization) vs coverage-only
// scoring at Set computation time.
func BenchmarkAblationEntropyCost(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["music"]
	s := g.Schema()
	b.Run("EntropyAllTypes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < s.NumTypes(); t++ {
				for _, inc := range s.Incident(graph.TypeID(t)) {
					_ = score.Entropy(g, graph.TypeID(t), inc)
				}
			}
		}
	})
	b.Run("CoverageAllTypes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum float64
			for t := 0; t < s.NumTypes(); t++ {
				for _, inc := range s.Incident(graph.TypeID(t)) {
					sum += float64(s.RelType(inc.Rel).EdgeCount)
				}
			}
			_ = sum
		}
	})
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkScoreComputeMusic(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["music"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = score.Compute(g, score.DefaultWalkOptions())
	}
}

func BenchmarkStationaryDistribution(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	s := graphs["music"].Schema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = score.StationaryDistribution(s, score.DefaultWalkOptions())
	}
}

func BenchmarkYPS09Summarize(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["film"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := yps09.New(g)
		if _, err := y.Summarize(6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["film"]
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := storage.Write(&buf, g); err != nil {
			b.Fatal(err)
		}
		if _, err := storage.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkLoadSnapshot: storage.LoadFile of the 100k-entity music
// snapshot, the load every previewd -graph start, checkpoint recovery and
// follower bootstrap pays, and of the default-scale people, books, film
// and tv snapshots, the graphs the fleet benchmark loads and its
// followers bootstrap from.
func BenchmarkLoadSnapshot(b *testing.B) {
	big, _ := parallelBenchSetup(b)
	for _, domain := range []string{"music-100k", "people", "books", "film", "tv"} {
		g := big
		if domain != "music-100k" {
			var err error
			if g, err = freebase.Generate(domain, freebase.DefaultGenOptions()); err != nil {
				b.Fatal(err)
			}
		}
		path := filepath.Join(b.TempDir(), domain+".egpt")
		if err := storage.SaveFile(path, g); err != nil {
			b.Fatal(err)
		}
		b.Run(domain, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := storage.LoadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublish: graph.Derive, which makes every live snapshot's
// graph, on the people graph, the default-scale music graph ingest writes
// to and the 100k-entity music graph, at batches of 1 to 256 new edges
// between entities of the right types, a tenth of them to new entities
// (perfbench's write batches). Every iteration derives the next graph
// from the same one: a graph derived from the frozen one by a batch that
// gave every type a new entity, so that, as in a live graph after its
// first batches, its tables have room to append to.
func BenchmarkPublish(b *testing.B) {
	big, _ := parallelBenchSetup(b)
	for _, domain := range []string{"people", "music", "music-100k"} {
		src := big
		if domain != "music-100k" {
			var err error
			if src, err = freebase.Generate(domain, freebase.DefaultGenOptions()); err != nil {
				b.Fatal(err)
			}
		}
		dg, err := dynamic.FromEntityGraph(src)
		if err != nil {
			b.Fatal(err)
		}
		frozen, err := dg.Freeze()
		if err != nil {
			b.Fatal(err)
		}
		var warm graph.Delta
		for t := 0; t < frozen.NumTypes(); t++ {
			warm.Entities = append(warm.Entities, graph.Entity{Name: fmt.Sprintf("warm-%d", t), Types: []graph.TypeID{graph.TypeID(t)}})
		}
		prev, err := graph.Derive(frozen, warm)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{1, 16, 128, 256} {
			d := publishDelta(prev, size, rand.New(rand.NewSource(int64(size))))
			b.Run(fmt.Sprintf("%s/edges=%d", domain, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graph.Derive(prev, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOpenLive: dynamic.FromEntityGraph plus the NewLive after it,
// which is how every live graph starts (a leader's load, a checkpoint
// recovery, a follower's boot or re-bootstrap, a migration's adoption),
// on the people graph, the default-scale music graph and the
// 100k-entity music graph. Each is opened from two sources: the
// generated graph, whose edges are in the generator's order, as a leader
// opens a generated snapshot, and (the -canonical arms) a live
// snapshot's graph, whose edges are in canonical order, as followers,
// restarts and adoptions open a checkpoint.
func BenchmarkOpenLive(b *testing.B) {
	big, _ := parallelBenchSetup(b)
	open := func(b *testing.B, src *graph.EntityGraph) *dynamic.Live {
		dg, err := dynamic.FromEntityGraph(src)
		if err != nil {
			b.Fatal(err)
		}
		live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
		if err != nil {
			b.Fatal(err)
		}
		return live
	}
	for _, domain := range []string{"people", "music", "music-100k"} {
		src := big
		if domain != "music-100k" {
			var err error
			if src, err = freebase.Generate(domain, freebase.DefaultGenOptions()); err != nil {
				b.Fatal(err)
			}
		}
		canonical := open(b, src).Snapshot().Frozen
		for _, arm := range []struct {
			name string
			src  *graph.EntityGraph
		}{{domain, src}, {domain + "-canonical", canonical}} {
			b.Run(arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					open(b, arm.src)
				}
			})
		}
	}
}

// BenchmarkWriteSnapshot: storage.Write of the default-scale people,
// books, film and tv graphs and of the 100k-entity music graph into a
// buffer: the encoding every checkpoint, SaveFile and follower bootstrap
// (the leader's checkpoint route) pays.
func BenchmarkWriteSnapshot(b *testing.B) {
	big, _ := parallelBenchSetup(b)
	for _, domain := range []string{"people", "books", "film", "tv", "music-100k"} {
		g := big
		if domain != "music-100k" {
			var err error
			if g, err = freebase.Generate(domain, freebase.DefaultGenOptions()); err != nil {
				b.Fatal(err)
			}
		}
		var buf bytes.Buffer
		b.Run(domain, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := storage.Write(&buf, g); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// publishDelta draws a batch of size new distinct edges on g: each picks a
// relationship type and a source of its From type, and a target of its To
// type or, one time in ten, a new entity of that type.
func publishDelta(g *graph.EntityGraph, size int, rng *rand.Rand) graph.Delta {
	var d graph.Delta
	seen := map[graph.Edge]bool{}
	for len(d.Edges) < size {
		rel := graph.RelTypeID(rng.Intn(g.NumRelTypes()))
		rt := g.RelType(rel)
		froms, tos := g.EntitiesOfType(rt.From), g.EntitiesOfType(rt.To)
		if len(froms) == 0 || len(tos) == 0 {
			continue
		}
		ed := graph.Edge{From: froms[rng.Intn(len(froms))], To: tos[rng.Intn(len(tos))], Rel: rel}
		if rng.Intn(10) == 0 {
			ed.To = graph.EntityID(g.NumEntities() + len(d.Entities))
			d.Entities = append(d.Entities, graph.Entity{Name: fmt.Sprintf("publish-%d", ed.To), Types: []graph.TypeID{rt.To}})
		} else if seen[ed] || slices.Contains(g.Neighbors(ed.From, rel, true), ed.To) {
			continue
		}
		seen[ed] = true
		d.Edges = append(d.Edges, ed)
	}
	return d
}

func BenchmarkTripleMarshal(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["tv"]
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := triple.Marshal(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkSchemaDerivation: deriving a schema graph from a graph's type
// names and relationship types. EntityGraph.Schema does this once per
// graph and then returns the shared result, so the benchmark derives
// through NewSchema to keep measuring the derivation, not the lookup.
func BenchmarkSchemaDerivation(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["books"]
	names := make([]string, g.NumTypes())
	for i := range names {
		names[i] = g.TypeName(graph.TypeID(i))
	}
	rels := make([]graph.RelType, g.NumRelTypes())
	for i := range rels {
		rels[i] = g.RelType(graph.RelTypeID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.NewSchema(names, rels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyPresentationBuild(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	g := graphs["tv"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.BuildPresentations(g, "tv"); err != nil {
			b.Fatal(err)
		}
	}
}

// Sequential vs parallel brute force on a mid-sized schema.
func BenchmarkAblationParallelBruteForce(b *testing.B) {
	_, _, discs := benchSetup(b)
	d := discs["architecture"]
	c := core.Constraint{K: 5, N: 10, Mode: core.Concise}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.BruteForce(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.BruteForceParallel(c, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Incremental score maintenance vs full batch recompute after streaming a
// domain-sized update log.
func BenchmarkAblationIncrementalScores(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	src := graphs["tv"]
	dg, err := dynamic.FromEntityGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("IncrementalRefresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dg.Scores(score.DefaultWalkOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BatchRecompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = score.Compute(src, score.DefaultWalkOptions())
		}
	})
}

// refreshBatchSize is the per-epoch update batch the serving-path
// benchmarks apply: small enough to model a live trickle, large enough
// that batching amortizes the per-refresh fixed costs.
const refreshBatchSize = 16

// BenchmarkIncrementalRefresh is the live write path of internal/dynamic:
// apply one update batch to a graph and re-emit the score set through the
// incremental machinery: the fold (graph.Derive of the next graph, which
// a live publication makes anyway, and one histogram move per grown run),
// a re-sum of each moved histogram's group sizes, and a cold walk solve.
func BenchmarkIncrementalRefresh(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	src := graphs["tv"]
	dg, err := dynamic.FromEntityGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dg.Scores(score.DefaultWalkOptions()); err != nil {
		b.Fatal(err) // the first emit sums every histogram; later ones only the moved
	}
	rng := rand.New(rand.NewSource(99))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < refreshBatchSize; j++ {
			rel := graph.RelTypeID(rng.Intn(src.NumRelTypes()))
			rt := src.RelType(rel)
			froms := src.EntitiesOfType(rt.From)
			tos := src.EntitiesOfType(rt.To)
			if err := dg.AddEdge(froms[rng.Intn(len(froms))], tos[rng.Intn(len(tos))], rel); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dg.Scores(score.DefaultWalkOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRecompute is the same single-batch refresh without the
// incremental machinery: rescan the whole entity graph with
// score.Compute, the cost a naive mutable server would pay per batch.
func BenchmarkFullRecompute(b *testing.B) {
	_, graphs, _ := benchSetup(b)
	src := graphs["tv"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = score.Compute(src, score.DefaultWalkOptions())
	}
}

// --- Parallel hot paths (BENCH_parallel_hotpaths.json) -------------------

// The parallel benchmarks run on a generated graph at serving scale
// (TargetEntities ≥ 1e5, far beyond the laptop-scale benchGen domains) so
// the worker pools have real work to amortize their coordination against.
// Generated once per process and shared.
var (
	parBenchOnce  sync.Once
	parBenchGraph *graph.EntityGraph
	parBenchSet   *score.Set
)

func parallelBenchSetup(b *testing.B) (*graph.EntityGraph, *score.Set) {
	b.Helper()
	parBenchOnce.Do(func() {
		g, err := freebase.Generate("music", freebase.GenOptions{TargetEntities: 100_000, Seed: 7})
		if err != nil {
			panic(err)
		}
		parBenchGraph = g
		parBenchSet = score.Compute(g, score.DefaultWalkOptions())
	})
	return parBenchGraph, parBenchSet
}

// parBenchWorkers is the pool size of the "parallel" arms: every core, but
// at least two so the pooled code path is exercised (and its coordination
// cost visible) even on a single-core machine.
func parBenchWorkers() int {
	if w := par.Auto(); w > 1 {
		return w
	}
	return 2
}

// BenchmarkParallelScore: the full scoring precomputation — per-type
// entropy and coverage fan-out, then the sequential power iteration —
// sequential vs worker pool. The two arms produce bit-identical Sets
// (TestScoreComputeParallelBitIdentical); this measures the speedup.
func BenchmarkParallelScore(b *testing.B) {
	g, _ := parallelBenchSetup(b)
	for _, workers := range []int{1, parBenchWorkers()} {
		b.Run(fmt.Sprintf("P%d", workers), func(b *testing.B) {
			opts := score.DefaultWalkOptions()
			opts.Parallelism = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = score.Compute(g, opts)
			}
		})
	}
}

// BenchmarkParallelDiscover: exact distance-constrained search at serving
// scale, one worker vs a worker pool — Alg. 3's search, which splits its
// prefix blocks by first type, and the ground-truth brute force, which
// splits its enumeration the same way. Both return identical previews at
// any worker count (TestDiscoverDifferential). The Apriori arms' B/op is
// the search's whole footprint: the compatibility rows and one scratch
// per worker, since no candidate level is stored.
func BenchmarkParallelDiscover(b *testing.B) {
	_, set := parallelBenchSetup(b)
	apriori := core.Constraint{K: 5, N: 10, Mode: core.Diverse, D: 2}
	brute := core.Constraint{K: 4, N: 8, Mode: core.Tight, D: 2}
	for _, workers := range []int{1, parBenchWorkers()} {
		d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage, Parallelism: workers})
		b.Run(fmt.Sprintf("Apriori/P%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.AprioriParallel(apriori, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("BruteForce/P%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.BruteForceParallel(brute, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchMix: the searches behind explore-long-tail's cache
// misses, with no certificate reuse. Each op builds a fresh Discoverer per
// measure pair on the 100k-entity music graph and runs the workload's
// constraint set: concise k ≤ 6 (dynamic programming), and tight and
// diverse k 2–3 with d 1–3 (Alg. 3), each at n ∈ {k, k+1, 2k, 3k}
// (BENCH_search_kernels.json).
func BenchmarkSearchMix(b *testing.B) {
	_, set := parallelBenchSetup(b)
	ns := func(k int) []int {
		out := []int{k}
		for _, n := range []int{k + 1, 2 * k, 3 * k} {
			if n != out[len(out)-1] {
				out = append(out, n)
			}
		}
		return out
	}
	var cs []core.Constraint
	for k := 1; k <= 6; k++ {
		for _, n := range ns(k) {
			if k > 1 || n > 1 {
				cs = append(cs, core.Constraint{K: k, N: n, Mode: core.Concise})
			}
		}
	}
	for k := 2; k <= 3; k++ {
		for _, n := range ns(k) {
			for d := 1; d <= 3; d++ {
				cs = append(cs, core.Constraint{K: k, N: n, Mode: core.Tight, D: d},
					core.Constraint{K: k, N: n, Mode: core.Diverse, D: d})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, km := range []score.KeyMeasure{score.KeyCoverage, score.KeyRandomWalk} {
			for _, nm := range []score.NonKeyMeasure{score.NonKeyCoverage, score.NonKeyEntropy} {
				d := core.New(set, core.Options{Key: km, NonKey: nm})
				for _, c := range cs {
					if _, err := d.Discover(c); err != nil && !errors.Is(err, core.ErrNoPreview) {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// renderMissDoc keeps BenchmarkRenderMiss's documents live.
var renderMissDoc render.PreviewDoc

// BenchmarkRenderMiss: what a response-cache miss pays to render, apart
// from discovery — one JSON document, one text and one Markdown rendering
// of a preview at tuples=5 over the three largest types of the
// 100k-entity graph (MUSICAL RECORDING, RELEASE TRACK and MUSICAL
// RELEASE, ~22k entities each), in two arms over the same preview:
//   - default: the default sampling stream the server uses, whose
//     positions are memoized after the first render;
//   - explicit-rand: a fresh seed-1 Options.Rand per rendering, which
//     bypasses the memo and draws once per key-type entity, an upper
//     bound on a full memo miss.
//
// Both arms must render the same bytes (BENCH_render_path.json,
// BENCH_sample_memo.json). The big-cells arms time the graph's largest
// cells instead, one format per arm (BENCH_cell_order.json).
func BenchmarkRenderMiss(b *testing.B) {
	g, set := parallelBenchSetup(b)
	types := make([]graph.TypeID, g.NumTypes())
	for i := range types {
		types[i] = graph.TypeID(i)
	}
	sort.SliceStable(types, func(i, j int) bool { return g.TypeCoverage(types[i]) > g.TypeCoverage(types[j]) })
	d := core.New(set, core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	p, err := d.ComputePreview(types[:3], 6)
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		opts func() render.Options
	}{
		{"default", func() render.Options { return render.Options{Tuples: 5} }},
		{"explicit-rand", func() render.Options {
			return render.Options{Tuples: 5, Rand: rand.New(rand.NewSource(1))}
		}},
	}
	var buf bytes.Buffer
	renderAll := func(opts func() render.Options) error {
		renderMissDoc = render.PreviewDocument(g, &p, opts())
		buf.Reset()
		if err := render.Preview(&buf, g, &p, opts()); err != nil {
			return err
		}
		return render.MarkdownPreview(&buf, g, &p, opts())
	}
	var want []byte
	for _, arm := range arms {
		if err := renderAll(arm.opts); err != nil {
			b.Fatal(err)
		}
		doc, err := json.Marshal(renderMissDoc)
		if err != nil {
			b.Fatal(err)
		}
		got := append(doc, buf.Bytes()...)
		if want != nil && !bytes.Equal(got, want) {
			b.Fatalf("%s renders other bytes than %s", arm.name, arms[0].name)
		}
		want = got
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := renderAll(arm.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// big-cells: every entity of MUSICAL ALBUM TYPE (15) and MUSICAL
	// GENRE (72) renders, with its incoming Release Type or Musical Genres
	// cell: 52 runs of more than 16 values, up to 2,597, ~9k names in
	// all. tuples=72 covers both key types, so sampling draws nothing.
	// Each cell is written straight from its graph run, which the graph
	// holds in name order, so the arms time writing names, not ordering
	// them.
	var big core.Preview
	for _, col := range []struct{ key, rel string }{
		{"MUSICAL ALBUM TYPE", "Release Type"},
		{"MUSICAL GENRE", "Musical Genres"},
	} {
		key, ok := g.TypeByName(col.key)
		if !ok {
			b.Fatalf("no type %q", col.key)
		}
		tb := core.Table{Key: key}
		for _, inc := range g.Schema().Incident(key) {
			if !inc.Outgoing && g.RelType(inc.Rel).Name == col.rel {
				tb.NonKeys = append(tb.NonKeys, core.Candidate{Inc: inc})
			}
		}
		big.Tables = append(big.Tables, tb)
	}
	bigOpts := render.Options{Tuples: 72}
	formats := []struct {
		name   string
		render func() error
	}{
		{"json", func() error {
			renderMissDoc = render.PreviewDocument(g, &big, bigOpts)
			return nil
		}},
		{"text", func() error {
			buf.Reset()
			return render.Preview(&buf, g, &big, bigOpts)
		}},
		{"markdown", func() error {
			buf.Reset()
			return render.MarkdownPreview(&buf, g, &big, bigOpts)
		}},
	}
	for _, f := range formats {
		if err := f.render(); err != nil {
			b.Fatal(err)
		}
		b.Run("big-cells/"+f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Incremental discovery (BENCH_incremental_refresh.json) --------------

// incrementalBenchEpochs is how many pre-generated write epochs the
// incremental-discovery benchmark cycles through. Each epoch is one
// refreshBatchSize-edge batch against the 100k-entity music graph.
const incrementalBenchEpochs = 32

// benchEpoch is the slice of a published snapshot the discovery layers
// consume — keeping the frozen entity graphs of all pre-generated epochs
// alive would cost hundreds of MB for data the search never reads.
type benchEpoch struct {
	epoch      uint64
	scores     *score.Set
	dirty      []graph.TypeID
	structural bool
}

var (
	incBenchOnce   sync.Once
	incBenchEpochs []benchEpoch
)

// incrementalBenchSetup replays a deterministic write workload against a
// live copy of the parallel benchmark graph: incrementalBenchEpochs
// batches of refreshBatchSize random edges between existing entities
// (epoch 0 is the initial structural publication).
func incrementalBenchSetup(b *testing.B) []benchEpoch {
	b.Helper()
	g, _ := parallelBenchSetup(b)
	incBenchOnce.Do(func() {
		dg, err := dynamic.FromEntityGraph(g)
		if err != nil {
			panic(err)
		}
		live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
		if err != nil {
			panic(err)
		}
		keep := func(s *dynamic.Snapshot) {
			incBenchEpochs = append(incBenchEpochs, benchEpoch{
				epoch: s.Epoch, scores: s.Scores, dirty: s.Dirty, structural: s.Structural,
			})
		}
		keep(live.Snapshot())
		rng := rand.New(rand.NewSource(7))
		nRels := g.NumRelTypes()
		for i := 0; i < incrementalBenchEpochs; i++ {
			snap, err := live.Apply(func(mg *dynamic.Graph) error {
				for j := 0; j < refreshBatchSize; j++ {
					rel := graph.RelTypeID(rng.Intn(nRels))
					rt := mg.Rel(rel)
					froms := g.EntitiesOfType(rt.From)
					tos := g.EntitiesOfType(rt.To)
					if len(froms) == 0 || len(tos) == 0 {
						continue
					}
					if err := mg.AddEdge(froms[rng.Intn(len(froms))], tos[rng.Intn(len(tos))], rel); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
			keep(snap)
		}
	})
	return incBenchEpochs
}

// BenchmarkIncrementalDiscover: exact tight/diverse discovery per write
// epoch, cold vs carried-forward. The Cold arm is what serving paid
// before incrementality: a fresh Discoverer and a full Apriori search at
// every epoch. The Incremental arm refreshes a Maintained state with the
// batch's dirty types and serves through the certificate fast path; the
// fullsearch/op metric records how often the top-k boundary forced a
// real re-search (0 = every epoch served from the certificate).
// Both arms return byte-identical previews at every epoch
// (TestMaintainedMatchesColdAcrossEpochs, and the serving-layer
// differential in internal/service).
func BenchmarkIncrementalDiscover(b *testing.B) {
	epochs := incrementalBenchSetup(b)
	c := core.Constraint{K: 5, N: 10, Mode: core.Diverse, D: 2}
	opts := core.Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage}

	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := epochs[1+i%(len(epochs)-1)]
			d := core.New(e.scores, opts)
			if _, err := d.Discover(c); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Incremental", func(b *testing.B) {
		b.ReportAllocs()
		var (
			m    *core.Maintained
			base int64 // full searches spent seeding, excluded from the metric
		)
		seed := func() {
			m = core.NewMaintained(opts)
			m.Refresh(epochs[0].scores, epochs[0].epoch, epochs[0].dirty, epochs[0].structural)
			if _, err := m.DiscoverAt(epochs[0].epoch, c); err != nil {
				b.Fatal(err)
			}
			base = m.FullSearches()
		}
		seed()
		var inLoop int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(len(epochs)-1) == 0 && i > 0 {
				// Epochs only move forward; re-seed the state (outside the
				// timer) before replaying the sequence.
				b.StopTimer()
				inLoop += m.FullSearches() - base
				seed()
				b.StartTimer()
			}
			e := epochs[1+i%(len(epochs)-1)]
			m.Refresh(e.scores, e.epoch, e.dirty, e.structural)
			if _, err := m.DiscoverAt(e.epoch, c); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		inLoop += m.FullSearches() - base
		b.ReportMetric(float64(inLoop)/float64(b.N), "fullsearch/op")
	})
}
