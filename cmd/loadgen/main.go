// Command loadgen measures the previewtables serving stack under a
// mixed read/write workload: latency percentiles, throughput,
// response-cache hit rate, conditional-GET (304) behavior and
// allocation cost per request. Results print as one JSON object,
// shaped for appending to BENCH_serving.json.
//
// The default workload serves the paper's Fig. 1 graph mutably and
// reads across the list, stats, preview and render routes:
//
//	loadgen -workers 32 -duration 5s
//	loadgen -workers 32 -duration 5s -write-every 64   # one write per 64 requests
//	loadgen -conditional                               # clients replay ETags
//	loadgen -no-cache                                  # cold contrast arm
//
// Synthetic domains scale the graph up (-domain music -entities 30000);
// write bodies are synthesized from the domain's own schema, so the
// write arm works on any graph.
//
// With -target the generator instead drives a RUNNING server over HTTP
// — a previewd node or the fleet router — discovering its graphs from
// GET /v1/graphs and mixing reads and writes across all of them, so a
// fleet run lands traffic on every shard:
//
//	loadgen -target http://127.0.0.1:8090 -workers 8 -duration 5s -write-every 32
//
// Targeted write bodies are synthesized from the fig1 schema (or from
// -domain's schema when set), matching how previewd and the fleet
// harness provision mutable graphs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/loadgen"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/wire"
)

func main() {
	log.SetPrefix("loadgen: ")
	log.SetFlags(0)

	workers := flag.Int("workers", 32, "concurrent request loops")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	writeEvery := flag.Int("write-every", 0, "interleave one write batch per this many requests (0 = read-only)")
	conditional := flag.Bool("conditional", false, "replay each path's ETag as If-None-Match, like a caching client")
	noCache := flag.Bool("no-cache", false, "disable the response cache (cold contrast arm)")
	domain := flag.String("domain", "", "benchmark a synthetic domain instead of fig1 (one of: "+fmt.Sprint(freebase.Domains())+")")
	entities := flag.Int("entities", 0, "with -domain: target entity count")
	seed := flag.Int64("seed", 1, "workload randomness seed")
	out := flag.String("out", "", "write the JSON result here instead of stdout")
	target := flag.String("target", "", "drive a running server at this base URL over HTTP (e.g. the fleet router) instead of an in-process handler; graphs are discovered from its /v1/graphs")
	flag.Parse()

	if *target != "" {
		runTarget(*target, *workers, *duration, *writeEvery, *conditional, *domain, *entities, *seed, *out)
		return
	}

	name, g := "fig1", fig1.Graph()
	if *domain != "" {
		opts := freebase.DefaultGenOptions()
		if *entities > 0 {
			opts.TargetEntities = *entities
		}
		var err error
		if g, err = freebase.Generate(*domain, opts); err != nil {
			log.Fatal(err)
		}
		name = *domain
	}
	log.Printf("graph %q: %s", name, g.Stats())

	dg, err := dynamic.FromEntityGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
	if err != nil {
		log.Fatal(err)
	}
	reg := service.NewRegistry()
	if err := reg.AddLive(name, live); err != nil {
		log.Fatal(err)
	}
	srv := service.New(reg)
	srv.NoCache = *noCache

	base := "/v1/graphs/" + name
	cfg := loadgen.Config{
		Workers:  *workers,
		Duration: *duration,
		ReadPaths: []string{
			"/v1/graphs",
			base + "/stats",
			base + "/preview?k=2&n=3",
			base + "/preview?k=2&n=3&tuples=3",
			base + "/preview?k=3&n=6&key=coverage&nonkey=entropy",
			// Tight/diverse previews exercise the Apriori search and, across
			// the write arm's epoch bumps, the incremental discovery path.
			base + "/preview?k=2&n=3&mode=tight&d=2",
			base + "/preview?k=2&n=3&mode=diverse&d=2",
			base + "/preview?k=2&n=3&mode=diverse&d=2&anytime=1",
			base + "/render?k=2&n=3&tuples=3&format=markdown",
		},
		Conditional: *conditional,
		Seed:        *seed,
	}
	if *writeEvery > 0 {
		cfg.WriteEvery = *writeEvery
		cfg.WriteRoutes = []string{base + "/edges"}
		cfg.WriteBody = writeBodyFor(g)
	}

	start := time.Now()
	res, err := loadgen.Run(srv, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d requests in %v: %.0f req/s, p50 %.3fms p99 %.3fms, %d writes, %d 304s, cache hit rate %.3f",
		res.Requests, time.Since(start).Round(time.Millisecond), res.RPS,
		res.P50MS, res.P99MS, res.Writes, res.NotModified, res.CacheHitRate)

	emit(res, *out)
}

// runTarget is the -target mode: discover the server's graphs, spread
// a mixed workload across all of them (so a fleet run touches every
// shard), and report the same measurements as the in-process mode —
// minus cache stats, which live behind the remote listener.
func runTarget(base string, workers int, duration time.Duration, writeEvery int, conditional bool, domain string, entities int, seed int64, out string) {
	var doc struct {
		Graphs []struct {
			Name    string `json:"name"`
			Mutable bool   `json:"mutable"`
		} `json:"graphs"`
	}
	if _, err := wire.Call(context.Background(), http.DefaultClient, http.MethodGet, strings.TrimRight(base, "/")+"/v1/graphs", 0, nil, &doc); err != nil {
		log.Fatalf("GET %s/v1/graphs: %v", base, err)
	}
	if len(doc.Graphs) == 0 {
		log.Fatalf("target %s serves no graphs", base)
	}

	cfg := loadgen.Config{
		Workers:     workers,
		Duration:    duration,
		ReadPaths:   []string{"/v1/graphs"},
		Conditional: conditional,
		Seed:        seed,
	}
	var names, writable []string
	for _, g := range doc.Graphs {
		names = append(names, g.Name)
		gb := "/v1/graphs/" + g.Name
		cfg.ReadPaths = append(cfg.ReadPaths,
			gb+"/stats",
			gb+"/preview?k=2&n=3&tuples=3",
			gb+"/preview?k=3&n=6&key=coverage&nonkey=entropy",
			gb+"/render?k=2&n=3&format=markdown",
		)
		if g.Mutable {
			writable = append(writable, gb+"/edges")
		}
	}
	log.Printf("target %s: %d graph(s): %v", base, len(names), names)
	if writeEvery > 0 {
		if len(writable) == 0 {
			log.Fatalf("-write-every set but target %s serves no mutable graphs", base)
		}
		schema := fig1.Graph()
		if domain != "" {
			opts := freebase.DefaultGenOptions()
			if entities > 0 {
				opts.TargetEntities = entities
			}
			var err error
			if schema, err = freebase.Generate(domain, opts); err != nil {
				log.Fatal(err)
			}
		}
		cfg.WriteEvery = writeEvery
		cfg.WriteRoutes = writable
		cfg.WriteBody = writeBodyFor(schema)
	}

	start := time.Now()
	res, err := loadgen.Run(loadgen.Remote(base), cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d requests in %v: %.0f req/s, p50 %.3fms p99 %.3fms, %d writes, %d 304s",
		res.Requests, time.Since(start).Round(time.Millisecond), res.RPS,
		res.P50MS, res.P99MS, res.Writes, res.NotModified)
	emit(res, out)
}

// emit prints the result JSON to stdout or -out.
func emit(res loadgen.Result, out string) {
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
}

// writeBodyFor synthesizes distinct write batches from the graph's own
// schema: each batch attaches one brand-new entity to an existing one
// along the graph's first relationship type, so every write is a real
// mutation (a new epoch) regardless of which graph is being driven.
func writeBodyFor(g *graph.EntityGraph) func(i int) string {
	if g.NumRelTypes() == 0 || g.NumEntities() == 0 {
		log.Fatal("graph has no relationships to synthesize writes from")
	}
	rel := g.RelType(0)
	fromType, toType := g.TypeName(rel.From), g.TypeName(rel.To)
	targets := g.EntitiesOfType(rel.To)
	if len(targets) == 0 {
		log.Fatalf("relationship %q has no target entities", rel.Name)
	}
	return func(i int) string {
		to := g.EntityName(targets[i%len(targets)])
		body, err := json.Marshal(map[string]any{
			"edges": []map[string]string{{
				"from":      fmt.Sprintf("loadgen entity %d", i),
				"rel":       rel.Name,
				"from_type": fromType,
				"to_type":   toType,
				"to":        to,
			}},
		})
		if err != nil {
			log.Fatal(err)
		}
		return string(body)
	}
}
