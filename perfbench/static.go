package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/storage"
)

// staticSpec is a read-only workload over static graphs: browse-hot and
// explore-long-tail.
type staticSpec struct {
	paths   map[string]string // graph name → snapshot file
	targets []readSpec
	warm    []readSpec // requested once in set-up, before timing
	// lists builds each client's op list from the seed; it is called
	// again whenever a list is needed, so no list stays live in the heap
	// that heap_mb measures.
	lists       func() [][]int32
	limit       time.Duration
	conditional bool // client 1 replays the last ETag it saw
	// hashBodies checks the window's bodies themselves (by CRC-32C)
	// against the reference instead of re-fetching the final state from
	// the cached server: on the long tail that second fetch of thousands
	// of URLs would double the check's cost.
	hashBodies bool
}

// staticSystem is one set-up of a static workload: the registry of
// loaded graphs and the server over it.
type staticSystem struct {
	reg *service.Registry
	srv *service.Server
}

// setupStatic loads every snapshot, registers it, runs the score
// precomputation and the warm-up reads.
func setupStatic(sp *staticSpec) (*staticSystem, error) {
	reg := service.NewRegistry()
	reg.Parallelism = parallelism()
	names := make([]string, 0, len(sp.paths))
	for n := range sp.paths {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, err := storage.LoadFile(sp.paths[n])
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", n, err)
		}
		if err := reg.Add(n, g); err != nil {
			return nil, err
		}
		gr, _ := reg.Get(n)
		gr.Scores()
	}
	srv := service.New(reg)
	for _, t := range sp.warm {
		if status, _, body := fetch(srv, t.path()); status != http.StatusOK {
			return nil, fmt.Errorf("warm-up GET %s: status %d: %s", t.path(), status, body)
		}
	}
	return &staticSystem{reg: reg, srv: srv}, nil
}

// staticPass is one set-up plus timed window of a static workload.
type staticPass struct {
	sys       *staticSystem
	clients   []*client
	requested []bool // by target: did any list request it
	win       *window
	setup     time.Duration
	readP50   float64 // ms
	hits      uint64
	misses    uint64
	requests  int
}

func runStaticPass(sp *staticSpec, tr *tracer) (*staticPass, error) {
	p := &staticPass{}
	runtime.GC()
	t0 := time.Now()
	sys, err := setupStatic(sp)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	p.sys = sys
	h := tr.wrap(p.sys.srv, layerServer, 0, nil)
	p.requested = make([]bool, len(sp.targets))
	for i, ops := range sp.lists() {
		c := newClient(i, h, sp.targets, ops)
		c.conditional = sp.conditional && i == 1
		c.staticETags = true
		c.hashBodies = sp.hashBodies
		c.trace(tr)
		for _, op := range ops {
			p.requested[op] = true
		}
		p.clients = append(p.clients, c)
	}
	h0, m0 := p.sys.srv.CacheStats()
	p.win = timeWindow(func() { runAll(p.clients) })
	h1, m1 := p.sys.srv.CacheStats()
	p.hits, p.misses = h1-h0, m1-m0
	for _, c := range p.clients {
		p.requests += c.reads
	}
	return p, nil
}

// finish reports the pass's end-to-end metrics, then drops the latency
// buffers and measures the heap.
func (p *staticPass) finish(res *result, limit time.Duration) {
	res.e2e("setup_s", p.setup.Seconds(), "s", "load, score precompute and warm-up reads")
	ms := reportReads(res, p.clients)
	good := withinLimit(ms, limit)
	for _, c := range p.clients {
		// Only the ETags and bodies seen stay, for the correctness gate:
		// a kept handler would keep this repetition's graphs alive into
		// the next one's heap figure.
		c.readLat, c.ops, c.h, c.reqs, c.sink = nil, nil, nil, nil, nil
	}
	p.readP50 = median(ms)
	p.win.measureHeap()
	reportWindow(res, p.win, good, p.requests, fmt.Sprintf("the %v read limit", limit))
	hr := ratio{num: p.hits, den: p.hits + p.misses}
	res.layer("service.cache_hit_ratio", hr.value(), "ratio", "Server.CacheStats delta: "+hr.String())
	var cond, nm int
	for _, c := range p.clients {
		cond += c.conditionals
		nm += c.notModified
	}
	if cond > 0 {
		r := ratio{num: uint64(nm), den: uint64(cond)}
		res.layer("service.not_modified_ratio", r.value(), "ratio", "304s / reads carrying If-None-Match: "+r.String())
	}
}

// verifyStatic is the correctness gate: every distinct URL the lists
// requested answers a NoCache server over the same registry with the
// same body and ETag as the cached server (or, with hashBodies, as every
// body the clients received in the window), and every ETag seen in the
// window, so every 304, is the current one.
func verifyStatic(res *result, p *staticPass, sp *staticSpec, clients []*client) {
	var idx []int
	for i, ok := range p.requested {
		if ok {
			idx = append(idx, i)
		}
	}
	ref := service.New(p.sys.reg)
	ref.NoCache = true
	type answer struct {
		status int
		etag   string
		body   []byte
	}
	want := make([]answer, len(idx))
	got := make([]answer, len(idx))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += 2 {
				path := sp.targets[idx[j]].path()
				want[j].status, want[j].etag, want[j].body = fetch(ref, path)
				if !sp.hashBodies {
					got[j].status, got[j].etag, got[j].body = fetch(p.sys.srv, path)
				}
			}
		}(w)
	}
	wg.Wait()
	digest := sha256.New()
	for j, i := range idx {
		path, w := sp.targets[i].path(), want[j]
		res.check(w.status == http.StatusOK && w.etag != "", "NoCache GET %s: status %d", path, w.status)
		if !sp.hashBodies {
			g := got[j]
			res.check(g.status == http.StatusOK && g.etag == w.etag && bytes.Equal(g.body, w.body),
				"cached vs NoCache GET %s: status %d, ETag %s vs %s, %d vs %d bytes", path, g.status, g.etag, w.etag, len(g.body), len(w.body))
		}
		sum := crc32.Checksum(w.body, castagnoli)
		for _, c := range clients {
			if e := c.seenETag[i]; e != "" {
				res.check(e == w.etag, "client %d: GET %s answered ETag %s in the window, reference %s", c.id, path, e, w.etag)
				if sp.hashBodies {
					res.check(c.seenSum[i] == sum, "client %d: GET %s: a body in the window differs from the reference", c.id, path)
				}
			}
		}
		fmt.Fprintf(digest, "%s\x00%d\x00", path, len(w.body))
		digest.Write(w.body)
	}
	res.note("digest sha256 over the %d distinct URLs' final-state bodies: %x", len(idx), digest.Sum(nil))
}

// runStatic runs a static workload: the untraced pass reports the
// end-to-end metrics; with tracing, a second set-up runs the same lists
// traced and the inputs are replayed through core, render, score and
// storage.
func runStatic(cfg config, res *result, sp *staticSpec) error {
	if cfg.trace {
		return traceStatic(cfg, res, sp)
	}
	var reps []*result
	var clients []*client
	var last *staticPass
	for i := 0; i < repetitions; i++ {
		last = nil // drop the previous repetition's system before the next set-up
		p, err := runStaticPass(sp, nil)
		if err != nil {
			return err
		}
		r := &result{}
		p.finish(r, sp.limit)
		reps = append(reps, r)
		clients = append(clients, p.clients...)
		last = p
	}
	mergeReps(res, reps)
	reportReadTail(res)
	verifyStatic(res, last, sp, clients)
	return nil
}

// traceStatic is the traced run: one untraced repetition (for the
// overhead comparison and the runtime counters), one traced repetition,
// then the replay of the inputs through core, render, score and storage.
func traceStatic(cfg config, res *result, sp *staticSpec) error {
	p, err := runStaticPass(sp, nil)
	if err != nil {
		return err
	}
	p.finish(res, sp.limit)
	reportReadTail(res)
	untraced := p.readP50
	p = nil
	tr := newTracer(2*countOps(sp.lists()) + 1024) // a client and a server span per read
	tp, err := runStaticPass(sp, tr)
	if err != nil {
		return err
	}
	verifyStatic(res, tp, sp, tp.clients)
	traced := durMedianMS(collectLat(tp.clients))
	reportTrace(res, tr.analyze(), tr, untraced, traced, math.NaN(), math.NaN())
	if err := tr.writeSpans(spanFile(cfg)); err != nil {
		return err
	}
	tp = nil
	rr := &readReplay{}
	for name, path := range sp.paths {
		g, err := storage.LoadFile(path)
		if err != nil {
			return err
		}
		opts := score.DefaultWalkOptions()
		opts.Parallelism = parallelism()
		var specs []readSpec
		for _, t := range sp.targets {
			if t.graph == name {
				specs = append(specs, t)
			}
		}
		if err := rr.replayReads(g, score.Compute(g, opts), specs, parallelism()); err != nil {
			return err
		}
	}
	rr.report(res)
	if err := replayLoadAndScore(res, sp.paths, parallelism()); err != nil {
		return err
	}
	res.layer("bench.harness_us", harnessCost(sp.targets, sp.lists()), "us", "mean per request against a no-op handler")
	return nil
}

func collectLat(clients []*client) []time.Duration {
	var lat []time.Duration
	for _, c := range clients {
		lat = append(lat, c.readLat...)
	}
	return lat
}

// --- browse-hot ---------------------------------------------------------

// browseTargets are the popular previews of one catalogue graph: its
// stats, small-k previews in every mode, and text and markdown renders.
func browseTargets(g string) []readSpec {
	p := func(route string, k, n int, mode string, d int, key, nonkey string, tuples int, format string) readSpec {
		return readSpec{graph: g, route: route, k: k, n: n, mode: mode, d: d, key: key, nonkey: nonkey, tuples: tuples, format: format}
	}
	return []readSpec{
		{graph: g, route: "stats"},
		p("preview", 2, 4, "concise", 0, "coverage", "coverage", 3, ""),
		p("preview", 3, 6, "concise", 0, "walk", "entropy", 2, ""),
		p("preview", 2, 4, "tight", 2, "coverage", "entropy", 0, ""),
		p("preview", 2, 4, "diverse", 2, "walk", "coverage", 1, ""),
		p("preview", 1, 3, "concise", 0, "coverage", "entropy", 5, ""),
		p("render", 2, 4, "concise", 0, "coverage", "coverage", 3, "text"),
		p("render", 3, 6, "concise", 0, "walk", "entropy", 2, "markdown"),
		p("render", 2, 3, "concise", 0, "coverage", "entropy", 0, "markdown"),
		p("render", 2, 4, "tight", 2, "walk", "entropy", 1, "text"),
	}
}

// hotLists draws each client's list from a Zipf over a seeded
// permutation of the targets.
func hotLists(rng *rand.Rand, targets int, s float64, perClient []int) [][]int32 {
	perm := rng.Perm(targets)
	lists := make([][]int32, len(perClient))
	for i, n := range perClient {
		z := newZipf(rng, targets, s)
		ops := make([]int32, n)
		for j := range ops {
			ops[j] = int32(perm[z.next()])
		}
		lists[i] = ops
	}
	return lists
}

func runBrowseHot(cfg config, res *result) error {
	sp := &staticSpec{paths: map[string]string{}, limit: time.Millisecond, conditional: true}
	for _, d := range []string{"music", "film", "books", "tv"} {
		path, err := snapshot(cfg, d, 0)
		if err != nil {
			return err
		}
		sp.paths[d] = path
		sp.targets = append(sp.targets, browseTargets(d)...)
	}
	path, err := saveSnapshot(cfg, "fig1", fig1.Graph())
	if err != nil {
		return err
	}
	sp.paths["fig1"] = path
	sp.targets = append(sp.targets,
		readSpec{graph: "fig1", route: "stats"},
		readSpec{graph: "fig1", route: "preview", k: 2, n: 3, mode: "concise", key: "coverage", nonkey: "coverage", tuples: 2},
		readSpec{graph: "fig1", route: "render", k: 2, n: 3, mode: "concise", key: "coverage", nonkey: "entropy", tuples: 2, format: "markdown"},
		readSpec{graph: "fig1", route: "render", k: 1, n: 2, mode: "concise", key: "walk", nonkey: "coverage", tuples: 3, format: "text"},
		readSpec{route: "graphs"},
	)
	sp.warm = sp.targets
	n := scaled(cfg, 1_400_000) / repetitions
	seed := cfg.seed
	sp.lists = func() [][]int32 {
		return hotLists(rand.New(rand.NewSource(seed)), len(sp.targets), 1.0, []int{n, n})
	}
	return runStatic(cfg, res, sp)
}

// --- explore-long-tail --------------------------------------------------

// longTail is a long-tail read space: every (k, n, mode, d, key,
// nonkey, tuples, format) combination a set of graphs can answer,
// grouped by class, each class in a seeded order.
type longTail struct {
	targets []readSpec
	offset  map[string]int // class → index of its first target
	size    map[string]int
}

// longTailShares fixes each class's share of every list; diverse (the
// heaviest class, 3–6 ms a search on the 100k-entity graph) stays above
// 5%.
var longTailShares = []struct {
	class string
	share float64
}{{"concise", 0.55}, {"tight", 0.30}, {"diverse", 0.15}}

var measurePairs = [][2]string{{"coverage", "coverage"}, {"coverage", "entropy"}, {"walk", "coverage"}, {"walk", "entropy"}}

// newLongTail enumerates the space on each graph: concise k ≤ maxK,
// tight and diverse k ≤ 3 (diverse k = 4 costs 100+ ms per search on the
// 100k-entity graph), the given tuple counts, and 3 formats. rep=1 is
// left out: one representative-sampling body costs ~200 ms and ~1 MB on
// the 100k-entity graph, and which such entries the cache evicts would
// drive heap_mb. Constraints a graph cannot satisfy (422) are dropped,
// so every request in a list succeeds; this is input preparation, not
// set-up. Concise k=1, n=1 is kept out for the warm-up reads.
func newLongTail(rng *rand.Rand, graphs map[string]string, maxK int, tuples []int) (*longTail, error) {
	names := make([]string, 0, len(graphs))
	for n := range graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	classes := map[string][]readSpec{}
	for _, name := range names {
		g, err := storage.LoadFile(graphs[name])
		if err != nil {
			return nil, err
		}
		opts := score.DefaultWalkOptions()
		opts.Parallelism = parallelism()
		set := score.Compute(g, opts)
		discs := map[measurePair]*core.Discoverer{}
		add := func(mode string, k, n, d int) {
			for _, m := range measurePairs {
				base := readSpec{graph: name, k: k, n: n, mode: mode, d: d, key: m[0], nonkey: m[1]}
				if mode != "concise" {
					km, nm, c := constraintOf(base)
					disc := discs[measurePair{km, nm}]
					if disc == nil {
						disc = core.New(set, core.Options{Key: km, NonKey: nm, Parallelism: opts.Parallelism})
						discs[measurePair{km, nm}] = disc
					}
					if _, err := disc.Discover(c); err != nil {
						continue
					}
				}
				for _, t := range tuples {
					for _, f := range []string{"", "text", "markdown"} {
						s := base
						s.tuples, s.route, s.format = t, "preview", f
						if f != "" {
							s.route = "render"
						}
						classes[mode] = append(classes[mode], s)
					}
				}
			}
		}
		ns := func(k int) []int {
			out := []int{k}
			for _, n := range []int{k + 1, 2 * k, 3 * k} {
				if n != out[len(out)-1] {
					out = append(out, n)
				}
			}
			return out
		}
		for k := 1; k <= maxK; k++ {
			for _, n := range ns(k) {
				if k > 1 || n > 1 {
					add("concise", k, n, 0)
				}
			}
		}
		for k := 2; k <= 3; k++ {
			for _, n := range ns(k) {
				for d := 1; d <= 3; d++ {
					add("tight", k, n, d)
					add("diverse", k, n, d)
				}
			}
		}
	}
	lt := &longTail{offset: map[string]int{}, size: map[string]int{}}
	for _, cl := range longTailShares {
		specs := classes[cl.class]
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		lt.offset[cl.class], lt.size[cl.class] = len(lt.targets), len(specs)
		lt.targets = append(lt.targets, specs...)
	}
	return lt, nil
}

// warm is one concise k=1 read per graph and measure pair: it builds the
// per-measure discovery state without rendering any listed target.
func (lt *longTail) warm(graphs map[string]string) []readSpec {
	var out []readSpec
	for g := range graphs {
		for _, m := range measurePairs {
			out = append(out, readSpec{graph: g, route: "preview", k: 1, n: 1, mode: "concise", key: m[0], nonkey: m[1]})
		}
	}
	return out
}

// lists draws each client's n reads: the class shares are exact, and
// within a class a Zipf (s = 0.2) runs over the class's seeded order.
func (lt *longTail) lists(seed int64, clients, n int) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	var lists [][]int32
	for c := 0; c < clients; c++ {
		ops := make([]int32, 0, n)
		for _, cl := range longTailShares {
			z := newZipf(rng, lt.size[cl.class], 0.2)
			for j := 0; j < int(cl.share*float64(n)); j++ {
				ops = append(ops, int32(lt.offset[cl.class]+z.next()))
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		lists = append(lists, ops)
	}
	return lists
}

func (lt *longTail) note(res *result, workload string) {
	res.note("%s: %d distinct targets (%d concise, %d tight, %d diverse)", workload,
		len(lt.targets), lt.size["concise"], lt.size["tight"], lt.size["diverse"])
}

func runExploreLongTail(cfg config, res *result) error {
	path, err := snapshot(cfg, "music", 100_000)
	if err != nil {
		return err
	}
	paths := map[string]string{"music": path}
	lt, err := newLongTail(rand.New(rand.NewSource(cfg.seed)), paths, 6, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		return err
	}
	lt.note(res, "explore-long-tail")
	n, seed := scaled(cfg, 2_800), cfg.seed
	sp := &staticSpec{
		paths:      paths,
		targets:    lt.targets,
		warm:       lt.warm(paths),
		lists:      func() [][]int32 { return lt.lists(seed+1, 2, n) },
		limit:      25 * time.Millisecond,
		hashBodies: true,
	}
	return runStatic(cfg, res, sp)
}
