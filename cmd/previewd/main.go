// Command previewd serves preview-table discovery over HTTP: it loads one
// or more entity graphs into a named registry and answers JSON preview
// queries, caching the expensive per-graph scoring precomputation across
// requests (see internal/service).
//
// Graphs are registered with repeatable flags. File formats are inferred
// from the extension: .nt is the N-Triples subset (literals dropped),
// .egpt/.snap is the binary snapshot, anything else the text triple
// format.
//
//	previewd -graph movies=movies.eg -graph dump=dump.nt -domain film
//
// then:
//
//	curl localhost:8080/v1/graphs
//	curl localhost:8080/v1/graphs/film/stats
//	curl 'localhost:8080/v1/graphs/film/preview?k=3&n=9&tuples=4'
//	curl 'localhost:8080/v1/graphs/film/preview?k=4&n=8&mode=diverse&d=3'
//	curl 'localhost:8080/v1/graphs/film/render?k=3&n=9&tuples=4&format=markdown'
//
// With -mutable every graph also accepts live updates (epoch-versioned;
// see docs/ARCHITECTURE.md):
//
//	curl -XPOST localhost:8080/v1/graphs/film/edges -d '{"edges":[...]}'
//	curl -XPOST localhost:8080/v1/graphs/film/triples --data-binary @batch.eg
//
// and -checkpoint-dir persists each mutated graph every
// -checkpoint-interval (skipping epochs already on disk) as an
// epoch-named snapshot committed through a current-manifest; a restart
// resumes each graph from its newest checkpoint, at its epoch.
//
// Add -wal-dir and writes become durable: every batch is appended to a
// per-graph write-ahead log (and fsynced) before its epoch is
// acknowledged, and startup recovers each graph exactly — newest valid
// checkpoint, then the WAL tail, resuming at the recovered epoch. With
// both flags set, each checkpoint truncates the WAL segments it makes
// redundant, so the log stays bounded.
//
// A durable previewd is also a replication leader: its WAL doubles as
// the replication log. Start a read replica with
//
//	previewd -follow http://leader:8080 -addr :8081
//
// and it bootstraps every replicated graph from the leader, tails the
// leader's WAL over HTTP, and serves byte-identical reads at the
// leader's epochs; writes to the replica answer 503 naming the leader.
// Give the replica -wal-dir and -checkpoint-dir and it is durable in
// its own right — a restart resumes from local state and only ships the
// records it missed. See docs/ARCHITECTURE.md, "Replication".
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	previewtables "github.com/uta-db/previewtables"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
)

func main() {
	log.SetPrefix("previewd: ")
	log.SetFlags(0)

	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 0, "synthetic generation scale for -domain (0 = default)")
	parallelism := flag.Int("parallelism", 0, "worker count for scoring precomputation, incremental refreshes and preview search (0 = one per core, 1 = sequential); results are identical at any setting")
	entities := flag.Int("entities", 0, "with -domain: target entity count for synthetic generation, overriding -scale (0 = use -scale)")
	warm := flag.Bool("warm", true, "precompute scores and the cell name order for every graph before serving (first requests would otherwise pay them, possibly past the write timeout)")
	mutable := flag.Bool("mutable", false, "serve every graph as mutable: POST /v1/graphs/{name}/edges and .../triples apply live updates with epoch-versioned snapshots")
	ckptDir := flag.String("checkpoint-dir", "", "with -mutable: directory for periodic snapshot persistence of mutated graphs (epoch-named snapshots plus a <name>.current manifest per graph; a restart resumes each graph from its newest checkpoint; must differ from -wal-dir)")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often to checkpoint mutated graphs to -checkpoint-dir")
	walDir := flag.String("wal-dir", "", "with -mutable: directory for per-graph write-ahead logs; every batch is logged and fsynced before its epoch is acknowledged, and startup replays checkpoint + WAL tail to resume at the exact pre-crash epoch")
	follow := flag.String("follow", "", "run as a read replica of the leader previewd at this base URL: its replicated graphs are bootstrapped and tail-followed over WAL shipping, writes here answer 503 naming the leader; add -wal-dir and -checkpoint-dir to make the replica durable (restart resumes from local state)")
	noRespCache := flag.Bool("no-response-cache", false, "disable the epoch-keyed response cache: every read renders cold (ETags and conditional GETs still work; useful for measuring the cache's effect)")
	anytimeBudget := flag.Int("anytime-budget", service.DefaultAnytimeBudget, "candidate-subset budget for ?anytime=1 preview requests: the immediate answer is the best preview found within this many scored subsets while background refinement converges on the exact one (0 = no bound, anytime answers are exact)")
	var graphs []service.GraphSource // loaded by NewNode, so -scale applies regardless of flag order
	flag.Func("graph", "register a graph: name=path (repeatable; format by extension)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		graphs = append(graphs, service.GraphSource{Name: name, Load: func() (*previewtables.EntityGraph, error) {
			return loadFile(path)
		}})
		return nil
	})
	flag.Func("domain", "register a synthetic domain under its own name (repeatable): "+
		strings.Join(freebase.Domains(), ", "), func(v string) error {
		graphs = append(graphs, service.GraphSource{Name: v, Load: func() (*previewtables.EntityGraph, error) {
			return genDomain(v, *scale, *entities)
		}})
		return nil
	})
	flag.Parse()

	workers := *parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	walk := score.DefaultWalkOptions()
	walk.Parallelism = workers
	node, err := service.NewNode(service.NodeConfig{
		Graphs:  graphs,
		Mutable: *mutable,
		FollowerOptions: service.FollowerOptions{
			Leader:        *follow,
			Walk:          walk,
			CheckpointDir: *ckptDir,
			WALRoot:       *walDir,
		},
		CheckpointInterval: *ckptEvery,
		Warm:               *warm,
	})
	if errors.Is(err, service.ErrNoGraphs) {
		fmt.Fprintln(os.Stderr, "previewd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	handler := node.Server()
	handler.NoCache = *noRespCache
	handler.AnytimeBudget = *anytimeBudget
	srv := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	mode := "read-only"
	switch {
	case *follow != "":
		mode = "read-replica (leader " + *follow + ")"
	case *mutable:
		mode = "mutable"
	}
	names := node.Registry().Names()
	log.Printf("serving %d %s graph(s) %v on %s (parallelism %d)", len(names), mode, names, *addr, workers)
	log.Fatal(srv.ListenAndServe())
}

// loadFile loads a graph file, inferring the format from its extension.
func loadFile(path string) (*previewtables.EntityGraph, error) {
	var (
		g   *previewtables.EntityGraph
		err error
	)
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".egpt", ".snap":
		g, err = previewtables.LoadSnapshot(path)
	case ".nt":
		var f *os.File
		if f, err = os.Open(path); err == nil {
			g, err = previewtables.ReadNTriples(f, previewtables.NTriplesOptions{DropLiterals: true})
			f.Close()
		}
	default:
		var f *os.File
		if f, err = os.Open(path); err == nil {
			g, err = previewtables.ReadTriples(f)
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return g, nil
}

// genDomain generates a synthetic Freebase-like domain.
func genDomain(domain string, scale float64, entities int) (*previewtables.EntityGraph, error) {
	opts := freebase.DefaultGenOptions()
	if scale > 0 {
		opts.Scale = scale
	}
	if entities > 0 {
		opts.TargetEntities = entities
	}
	return freebase.Generate(domain, opts)
}
