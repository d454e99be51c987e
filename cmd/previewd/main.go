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
// and -checkpoint-dir persists each mutated graph back to a snapshot file
// every -checkpoint-interval (skipping epochs already on disk).
//
// Add -wal-dir and writes become durable: every batch is appended to a
// per-graph write-ahead log (and fsynced) before its epoch is
// acknowledged, and startup recovers each graph exactly — newest valid
// checkpoint, then the WAL tail, resuming at the recovered epoch. With
// both flags set, checkpoints are epoch-named snapshots committed
// through a current-manifest, and each checkpoint truncates the WAL
// segments it makes redundant, so the log stays bounded.
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
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/storage"
)

func main() {
	log.SetPrefix("previewd: ")
	log.SetFlags(0)

	reg := service.NewRegistry()
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 0, "synthetic generation scale for -domain (0 = default)")
	parallelism := flag.Int("parallelism", 0, "worker count for scoring precomputation, incremental refreshes and preview search (0 = one per core, 1 = sequential); results are identical at any setting")
	entities := flag.Int("entities", 0, "with -domain: target entity count for synthetic generation, overriding -scale (0 = use -scale)")
	warm := flag.Bool("warm", true, "precompute scores for every graph before serving (first requests would otherwise pay it, possibly past the write timeout)")
	mutable := flag.Bool("mutable", false, "serve every graph as mutable: POST /v1/graphs/{name}/edges and .../triples apply live updates with epoch-versioned snapshots")
	ckptDir := flag.String("checkpoint-dir", "", "with -mutable: directory for periodic snapshot persistence of mutated graphs (one <name>.egpt per graph; epoch-named snapshots plus a <name>.current manifest when -wal-dir is also set)")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often to checkpoint mutated graphs to -checkpoint-dir")
	walDir := flag.String("wal-dir", "", "with -mutable: directory for per-graph write-ahead logs; every batch is logged and fsynced before its epoch is acknowledged, and startup replays checkpoint + WAL tail to resume at the exact pre-crash epoch")
	follow := flag.String("follow", "", "run as a read replica of the leader previewd at this base URL: its replicated graphs are bootstrapped and tail-followed over WAL shipping, writes here answer 503 naming the leader; add -wal-dir and -checkpoint-dir to make the replica durable (restart resumes from local state)")
	noRespCache := flag.Bool("no-response-cache", false, "disable the epoch-keyed response cache: every read renders cold (ETags and conditional GETs still work; useful for measuring the cache's effect)")
	anytimeBudget := flag.Int("anytime-budget", service.DefaultAnytimeBudget, "candidate-subset budget for ?anytime=1 preview requests: the immediate answer is the best preview found within this many scored subsets while background refinement converges on the exact one (0 = no bound, anytime answers are exact)")
	var loads []func() (string, *previewtables.EntityGraph, error) // deferred so -scale applies regardless of flag order
	flag.Func("graph", "register a graph: name=path (repeatable; format by extension)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, func() (string, *previewtables.EntityGraph, error) {
			g, err := loadFile(path)
			return name, g, err
		})
		return nil
	})
	flag.Func("domain", "register a synthetic domain under its own name (repeatable): "+
		strings.Join(freebase.Domains(), ", "), func(v string) error {
		loads = append(loads, func() (string, *previewtables.EntityGraph, error) {
			g, err := genDomain(v, *scale, *entities)
			return v, g, err
		})
		return nil
	})
	flag.Parse()

	workers := *parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	reg.Parallelism = workers
	walkOpts := score.DefaultWalkOptions()
	walkOpts.Parallelism = workers

	if len(loads) == 0 && *follow == "" && !(*mutable && *walDir != "") {
		// A durable mutable node may legitimately start empty: it is a
		// migration target, acquiring graphs at runtime through the fleet
		// router's adoption pipeline (and re-recovering them from local
		// state on restart).
		fmt.Fprintln(os.Stderr, "previewd: no graphs; pass at least one -graph name=path or -domain name (or -follow a leader, or -mutable -wal-dir to start empty as a migration target)")
		flag.Usage()
		os.Exit(2)
	}
	if *ckptDir != "" && !*mutable && *follow == "" {
		log.Fatal("-checkpoint-dir requires -mutable or -follow (static graphs never change)")
	}
	if *walDir != "" && !*mutable && *follow == "" {
		log.Fatal("-wal-dir requires -mutable or -follow (static graphs never change)")
	}
	if *ckptDir != "" && *ckptEvery <= 0 {
		log.Fatalf("-checkpoint-interval must be positive, got %v", *ckptEvery)
	}
	if *follow != "" {
		if len(loads) > 0 {
			log.Fatal("-follow replicates the leader's graphs; drop -graph/-domain")
		}
		if *mutable {
			log.Fatal("-follow is incompatible with -mutable: a replica accepts writes only from the replication stream")
		}
		if (*ckptDir == "") != (*walDir == "") {
			log.Fatal("a durable replica needs -checkpoint-dir and -wal-dir together (the checkpoint anchors the local WAL's epoch base)")
		}
	}
	if *walDir != "" {
		// Arm write fencing before anything serves or tails: the fleet
		// router stamps every proxied write with this node's shard fence,
		// and a stale stamp — a deposed leader's, or a write routed under
		// superseded membership — is refused with 409 instead of being
		// acknowledged. The fence persists next to the WAL manifests so a
		// restart cannot forget it was deposed.
		if err := reg.EnableFencing(*walDir); err != nil {
			log.Fatal(err)
		}
		if f, on := reg.Fencing(); on && f > 0 {
			log.Printf("fencing: recovered epoch %d", f)
		}
	}
	wals := map[string]*storage.WAL{}
	ckpts := map[string]*storage.Checkpointer{}
	var replicaFollowers []*service.Follower
	if *follow != "" {
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		followers, err := service.FollowAll(reg, service.FollowerOptions{
			Leader:        *follow,
			Walk:          walkOpts,
			CheckpointDir: *ckptDir,
			WALRoot:       *walDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		if len(followers) == 0 {
			log.Fatalf("leader %s ships no graphs; it needs -mutable -wal-dir", *follow)
		}
		for _, f := range followers {
			log.Printf("graph %q: following %s from epoch %d", f.Name(), *follow, f.Applied())
			if w := f.WAL(); w != nil {
				wals[f.Name()] = w
			}
			// Share the follower's checkpointer: its re-bootstrap saves and
			// the periodic loop's must serialize through one instance.
			if ck := f.Checkpointer(); ck != nil {
				ckpts[f.Name()] = ck
			}
		}
		replicaFollowers = followers
	}
	for _, load := range loads {
		name, g, err := load()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("graph %q: %s", name, g.Stats())
		switch {
		case *mutable && *walDir != "":
			// Durable: recover checkpoint + WAL tail, then log every new
			// batch before acknowledging it. The recovery origin is kept so
			// followers can bootstrap a byte-identical replica.
			rec, err := service.RecoverLive(g, name, *ckptDir, filepath.Join(*walDir, name), walkOpts)
			if err != nil {
				log.Fatal(err)
			}
			if epoch := rec.Live.Snapshot().Epoch; epoch > 0 {
				log.Printf("graph %q: recovered to epoch %d (%s)", name, epoch, rec.Live.Snapshot().Stats)
			}
			opts := []service.LiveOption{
				service.WithDurability(rec.WAL),
				service.WithOrigin(rec.Origin, rec.OriginEpoch),
			}
			if err := reg.AddLive(name, rec.Live, opts...); err != nil {
				log.Fatal(err)
			}
			wals[name] = rec.WAL
		case *mutable:
			dg, err := dynamic.FromEntityGraph(g)
			if err != nil {
				log.Fatal(err)
			}
			live, err := dynamic.NewLive(dg, walkOpts)
			if err != nil {
				log.Fatal(err)
			}
			if err := reg.AddLive(name, live); err != nil {
				log.Fatal(err)
			}
		default:
			if err := reg.Add(name, g); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *mutable && *walDir != "" && *ckptDir != "" {
		// Graphs adopted at runtime (fleet migration) are registered by no
		// flag; their checkpoint manifests are how a restart finds them.
		recovered, err := service.RecoverAdopted(reg, *ckptDir, *walDir, walkOpts)
		if err != nil {
			log.Fatal(err)
		}
		for name, rec := range recovered {
			log.Printf("graph %q: recovered adopted graph to epoch %d", name, rec.Live.Snapshot().Epoch)
			wals[name] = rec.WAL
		}
	}
	if *warm {
		for _, name := range reg.Names() {
			gr, ok := reg.Get(name)
			if !ok {
				continue
			}
			start := time.Now()
			gr.Scores()
			log.Printf("graph %q: scores precomputed in %v", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
		go checkpointLoop(reg, *ckptDir, *ckptEvery, wals, ckpts)
	}

	handler := service.New(reg)
	handler.NoCache = *noRespCache
	handler.AnytimeBudget = *anytimeBudget
	if *mutable && *walDir != "" && *ckptDir != "" {
		// A durable leader participates in fleet graph migration: adopt
		// tails a graph from its old owner, promote opens it for writes
		// after cutover, drop cleans up the source side. All three routes
		// are fence-gated; only the fleet router drives them.
		adopter := service.NewAdopter(reg, service.FollowerOptions{
			Walk:          walkOpts,
			CheckpointDir: *ckptDir,
			WALRoot:       *walDir,
		})
		handler.OnAdopt = func(graph, source string) error {
			log.Printf("graph %q: adopting from %s", graph, source)
			return adopter.Adopt(graph, source)
		}
		handler.OnGraphPromote = func(graph string) error {
			log.Printf("graph %q: promoted (migration cutover)", graph)
			return adopter.Promote(graph)
		}
		handler.OnDrop = func(graph string) error {
			log.Printf("graph %q: dropped (migrated away)", graph)
			return adopter.Drop(graph)
		}
	}
	if len(replicaFollowers) > 0 {
		// POST /v1/replication/promote turns this replica into a leader:
		// every replication loop stops (WALs stay open, so subsequent local
		// writes keep their durability hook) and writes are accepted here.
		handler.OnPromote = func() error {
			for _, f := range replicaFollowers {
				if err := f.Promote(); err != nil {
					return err
				}
			}
			log.Printf("promoted: now leading %d graph(s)", len(replicaFollowers))
			return nil
		}
	}
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
	log.Printf("serving %d %s graph(s) %v on %s (parallelism %d)", len(reg.Names()), mode, reg.Names(), *addr, workers)
	log.Fatal(srv.ListenAndServe())
}

// checkpointLoop persists every mutable graph's latest snapshot to dir on
// a fixed cadence. The Checkpointer skips epochs already on disk, so a
// quiet graph costs one atomic-counter read per tick. Graphs with a WAL
// get durable (epoch-named, manifest-committed) checkpoints that
// truncate the replayed log segments after each successful save.
func checkpointLoop(reg *service.Registry, dir string, every time.Duration, wals map[string]*storage.WAL, ckpts map[string]*storage.Checkpointer) {
	// Follower graphs arrive with their checkpointer pre-seeded (shared
	// with the replication loop's re-bootstrap saves); the rest
	// materialize lazily per tick, so a graph registered after the loop
	// starts is picked up instead of dereferenced as nil.
	for range time.Tick(every) {
		for _, name := range reg.Names() {
			gr, ok := reg.Get(name)
			if !ok || gr.Live() == nil {
				continue
			}
			ck := ckpts[name]
			if ck == nil && gr.FollowState() != nil {
				// Mid-adoption: the adoption's own Follower checkpoints this
				// graph (bootstrap commit, re-bootstrap saves) through its
				// private Checkpointer; a second one here would race it.
				// After promotion FollowState clears and the graph joins the
				// loop below, with its WAL found via gr.WAL().
				continue
			}
			if ck == nil {
				wal := wals[name]
				if wal == nil {
					// Registered after boot (adopted, then promoted): the WAL
					// lives on the graph's durability hook, not in the boot-time
					// map.
					wal = gr.WAL()
				}
				if wal != nil {
					ck = storage.NewDurableCheckpointer(dir, name, wal)
				} else {
					ck = storage.NewCheckpointer(filepath.Join(dir, name+".egpt"))
				}
				ckpts[name] = ck
			}
			snap := gr.Live().Snapshot()
			wrote, err := ck.Save(snap.Frozen, snap.Epoch)
			if err != nil {
				log.Printf("checkpoint %q: %v", name, err)
				continue
			}
			if wrote {
				log.Printf("checkpoint %q: epoch %d → %s", name, snap.Epoch, ck.Path())
			}
		}
	}
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
