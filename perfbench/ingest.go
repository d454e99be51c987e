package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/storage"
)

// edge is one edge of a write batch, in the POST /edges wire form. Every
// edge names both endpoint types, so a batch resolves without lookups
// and a new relationship name declares a new relationship type.
type edge struct {
	From     string `json:"from"`
	Rel      string `json:"rel"`
	FromType string `json:"from_type"`
	ToType   string `json:"to_type"`
	To       string `json:"to"`
}

// batch is one seeded write: its edges and their JSON body.
type batch struct {
	edges      []edge
	body       []byte
	structural bool // declares a relationship type the graph lacks
}

// structuralEvery is the fixed share of structural batches: one in this
// many declares a new relationship type, which forces discovery state to
// be rebuilt cold at that epoch.
const structuralEvery = 30

// makeBatches draws the seeded write batches for g: 1–256 edges each
// over 1–4 of the graph's relationship types, between existing entities
// of the right types except for a tenth of the targets, which are new
// entities. Every structuralEvery-th batch also declares a new
// relationship type between two existing types.
func makeBatches(rng *rand.Rand, g *graph.EntityGraph, n int, tag string) []batch {
	type relInfo struct {
		name, from, to string
		fromEnts       []graph.EntityID
		toEnts         []graph.EntityID
	}
	var rels []relInfo
	for r := 0; r < g.NumRelTypes(); r++ {
		rt := g.RelType(graph.RelTypeID(r))
		from, to := g.EntitiesOfType(rt.From), g.EntitiesOfType(rt.To)
		if len(from) == 0 || len(to) == 0 {
			continue
		}
		rels = append(rels, relInfo{rt.Name, g.TypeName(rt.From), g.TypeName(rt.To), from, to})
	}
	out := make([]batch, n)
	fresh := 0
	for i := range out {
		size := 1 + rng.Intn(256)
		picked := make([]relInfo, 1+rng.Intn(4))
		for j := range picked {
			picked[j] = rels[rng.Intn(len(rels))]
		}
		b := batch{structural: (i+1)%structuralEvery == 0}
		if b.structural {
			picked[0].name = fmt.Sprintf("%s-rel-%d", tag, i)
		}
		for e := 0; e < size; e++ {
			ri := picked[e%len(picked)]
			to := g.EntityName(ri.toEnts[rng.Intn(len(ri.toEnts))])
			if rng.Intn(10) == 0 {
				fresh++
				to = fmt.Sprintf("%s-entity-%d", tag, fresh)
			}
			b.edges = append(b.edges, edge{
				From:     g.EntityName(ri.fromEnts[rng.Intn(len(ri.fromEnts))]),
				Rel:      ri.name,
				FromType: ri.from,
				ToType:   ri.to,
				To:       to,
			})
		}
		body, err := json.Marshal(struct {
			Edges []edge `json:"edges"`
		}{b.edges})
		if err != nil {
			panic(err) // a struct of strings always marshals
		}
		b.body = body
		out[i] = b
	}
	return out
}

// applyEdges applies a batch to a dynamic graph the way the server's
// edge route applies typed edges: declare-or-find each endpoint type,
// relationship type and entity, then add the edge.
func applyEdges(g *dynamic.Graph, edges []edge) error {
	for _, e := range edges {
		ft, tt := g.Type(e.FromType), g.Type(e.ToType)
		rel, err := g.RelType(e.Rel, ft, tt)
		if err != nil {
			return err
		}
		if err := g.AddEdge(g.Entity(e.From, ft), g.Entity(e.To, tt), rel); err != nil {
			return err
		}
	}
	return nil
}

// ingestTargets are the browser's previews and renders of the graph
// being loaded; visibleTarget is the writer's own read, outside them.
func ingestTargets(g string) (reader []readSpec, visible readSpec) {
	p := func(route string, k, n int, mode string, d int, key, nonkey string, tuples int, format string) readSpec {
		return readSpec{graph: g, route: route, k: k, n: n, mode: mode, d: d, key: key, nonkey: nonkey, tuples: tuples, format: format}
	}
	reader = []readSpec{
		{graph: g, route: "stats"},
		p("preview", 2, 4, "concise", 0, "coverage", "coverage", 2, ""),
		p("preview", 3, 6, "concise", 0, "walk", "entropy", 0, ""),
		p("preview", 2, 4, "tight", 2, "coverage", "entropy", 1, ""),
		p("preview", 2, 4, "diverse", 2, "walk", "coverage", 0, ""),
		p("preview", 4, 8, "concise", 0, "coverage", "entropy", 3, ""),
		p("preview", 1, 3, "concise", 0, "walk", "coverage", 5, ""),
		p("preview", 3, 6, "tight", 2, "walk", "entropy", 0, ""),
		p("render", 3, 6, "concise", 0, "coverage", "coverage", 2, "markdown"),
		p("render", 2, 4, "concise", 0, "walk", "entropy", 3, "text"),
		p("render", 2, 3, "tight", 2, "coverage", "coverage", 0, "markdown"),
		p("render", 3, 9, "concise", 0, "coverage", "entropy", 1, "text"),
	}
	return reader, p("preview", 2, 5, "concise", 0, "coverage", "coverage", 1, "")
}

// ingestSystem is one set-up: a durable live graph behind a server.
type ingestSystem struct {
	reg      *service.Registry
	srv      *service.Server
	rec      *service.Recovery
	walDir   string
	curWrite atomic.Int64
}

func (s *ingestSystem) close() { s.rec.WAL.Close() }

func setupIngest(cfg config, snap string, walDir string, warm []readSpec, tr *tracer) (*ingestSystem, error) {
	base, err := storage.LoadFile(snap)
	if err != nil {
		return nil, err
	}
	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	rec, err := service.RecoverLive(base, "music", "", walDir, opts)
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry()
	reg.Parallelism = parallelism()
	if err := reg.AddLive("music", rec.Live, service.WithDurability(rec.WAL), service.WithOrigin(rec.Origin, rec.OriginEpoch)); err != nil {
		rec.WAL.Close()
		return nil, err
	}
	sys := &ingestSystem{reg: reg, srv: service.New(reg), rec: rec, walDir: walDir}
	if tr != nil {
		// Same append as WithDurability's hook, timed as a storage span.
		rec.Live.SetDurability(tr.walHook(0, &sys.curWrite, rec.WAL.Append))
	}
	for _, t := range warm {
		if status, _, body := fetch(sys.srv, t.path()); status != http.StatusOK {
			sys.close()
			return nil, fmt.Errorf("warm-up GET %s: status %d: %s", t.path(), status, body)
		}
	}
	return sys, nil
}

// ingestPass is one set-up plus timed window.
type ingestPass struct {
	sys        *ingestSystem
	reader     *client
	writer     *client
	setup      time.Duration
	win        *window
	readP50    float64 // ms
	writeLat   []time.Duration
	visible    []time.Duration
	writeErr   int
	visibleErr int
	hits       uint64
	misses     uint64
}

func runIngestPass(cfg config, rep int, snap string, targets []readSpec, visible readSpec, batches []batch, segments [][]int32, tr *tracer) (*ingestPass, error) {
	p := &ingestPass{}
	warm := append(append([]readSpec(nil), targets...), visible)
	runtime.GC()
	walDir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-%d-%t", rep, tr != nil))
	t0 := time.Now()
	sys, err := setupIngest(cfg, snap, walDir, warm, tr)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	p.sys = sys
	h := tr.wrap(p.sys.srv, layerServer, 0, &p.sys.curWrite)
	var ops []int32
	for _, s := range segments {
		ops = append(ops, s...)
	}
	p.reader = newClient(0, h, targets, ops)
	p.reader.wantEpoch = true
	p.writer = newClient(1, h, []readSpec{visible}, nil)
	p.writer.wantEpoch = true
	p.reader.trace(tr)
	p.writer.trace(tr)
	posts := make([]*http.Request, len(batches))
	for i, b := range batches {
		posts[i] = httptest.NewRequest(http.MethodPost, "/v1/graphs/music/edges", bytes.NewReader(b.body))
		posts[i].Header.Set("Content-Type", "application/json")
	}
	p.writeLat = make([]time.Duration, 0, len(batches))
	p.visible = make([]time.Duration, 0, len(batches))
	h0, m0 := p.sys.srv.CacheStats()
	p.win = timeWindow(func() {
		for i := range batches {
			var wg sync.WaitGroup
			wg.Add(1)
			go func(seg []int32) {
				defer wg.Done()
				p.reader.runOps(seg)
			}(segments[i])
			p.write(i, posts[i])
			wg.Wait()
		}
	})
	h1, m1 := p.sys.srv.CacheStats()
	p.hits, p.misses = h1-h0, m1-m0
	return p, nil
}

// write posts batch i, checks its ack is epoch i+1, then reads the
// writer's preview once. The ack follows the publish, so that read must
// show the acked epoch; visible is the time from sending the write to
// that response.
func (p *ingestPass) write(i int, post *http.Request) {
	w := p.writer
	t0 := time.Now()
	d := w.serve(post)
	w.writes++
	ack := w.sink.epoch
	if w.sink.status != http.StatusOK || ack != int64(i+1) {
		p.writeErr++
		w.fail("POST batch %d: status %d, acked epoch %d, want %d", i, w.sink.status, ack, i+1)
		return
	}
	p.writeLat = append(p.writeLat, d)
	w.read(0)
	if w.sink.status != http.StatusOK || w.sink.epoch < ack {
		p.visibleErr++
		w.fail("visible read after batch %d: status %d, epoch %d < acked %d", i, w.sink.status, w.sink.epoch, ack)
		return
	}
	p.visible = append(p.visible, time.Since(t0))
}

func runIngestAndRead(cfg config, res *result) error {
	snap, err := snapshot(cfg, "music", 0)
	if err != nil {
		return err
	}
	base, err := storage.LoadFile(snap)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := scaled(cfg, 120)
	batches := makeBatches(rng, base, w, "perfbench")
	targets, visible := ingestTargets("music")
	// Each segment reads every target in six passes, each in a seeded
	// order, while one batch is in flight. The first read of a URL at an
	// epoch is a miss and the rest are hits, so a sixth of the reads miss
	// on every run: read_p50_ms sits inside the hits and read_p99_ms
	// inside the misses, each well away from the boundary.
	const passes = 6
	perSegment := passes * len(targets)
	segments := make([][]int32, w)
	for i := range segments {
		var seg []int32
		for pass := 0; pass < passes; pass++ {
			for _, t := range rng.Perm(len(targets)) {
				seg = append(seg, int32(t))
			}
		}
		segments[i] = seg
	}
	edges := 0
	for _, b := range batches {
		edges += len(b.edges)
	}
	res.note("ingest-and-read: %d batches (%d edges, %d structural), %d reads in %d-read segments, every batch fsynced before its ack",
		len(batches), edges, w/structuralEvery, w*perSegment, perSegment)

	if cfg.trace {
		return traceIngest(cfg, res, snap, base, targets, visible, batches, segments, edges)
	}
	var reps []*result
	var writes, visibles []time.Duration
	var writeErrs, visibleErrs int
	var last *ingestPass
	for i := 0; i < repetitions; i++ {
		if last != nil {
			last.sys.close()
			last = nil
		}
		p, err := runIngestPass(cfg, i, snap, targets, visible, batches, segments, nil)
		if err != nil {
			return err
		}
		r := &result{}
		p.finish(r, len(batches), edges)
		reps = append(reps, r)
		writes = append(writes, p.writeLat...)
		visibles = append(visibles, p.visible...)
		writeErrs += p.writeErr
		visibleErrs += p.visibleErr
		last = p
	}
	mergeReps(res, reps)
	reportReadTail(res)
	reportPercentiles(res, "write", sortedMillis(writes, writeErrs), []float64{50, 90})
	reportPercentiles(res, "visible", sortedMillis(visibles, visibleErrs), []float64{50})
	res.note("write and visible percentiles pool the %d repetitions", repetitions)
	return verifyIngest(res, last, snap, targets, visible, len(batches))
}

// finish reports one repetition's metrics, then drops the latency
// buffers and measures the heap.
func (p *ingestPass) finish(res *result, writes, edges int) {
	res.e2e("setup_s", p.setup.Seconds(), "s", "load, live graph and WAL boot, score precompute and warm-up reads")
	readMS := reportReads(res, []*client{p.reader})
	p.readP50 = median(readMS)
	writeMS := sortedMillis(p.writeLat, p.writeErr)
	// The writer's own reads are the visible class, not reads.
	res.attempted += writes + p.writer.reads
	res.failed += p.writeErr + p.writer.readFailed + p.visibleErr
	res.failures = append(res.failures, p.writer.failures...)
	const readLimit, writeLimit = 25 * time.Millisecond, 250 * time.Millisecond
	good := withinLimit(readMS, readLimit) + withinLimit(writeMS, writeLimit)
	requests := p.reader.reads + p.writer.reads + p.writer.writes
	p.reader.readLat, p.reader.ops = nil, nil
	p.win.measureHeap()
	reportWindow(res, p.win, good, requests, fmt.Sprintf("%v (reads) / %v (writes)", readLimit, writeLimit))
	hr := ratio{num: p.hits, den: p.hits + p.misses}
	res.layer("service.cache_hit_ratio", hr.value(), "ratio", "Server.CacheStats delta: "+hr.String())
	walBytes := dirSize(p.sys.walDir)
	res.layer("storage.wal_bytes_per_edge", float64(walBytes)/float64(edges), "B", fmt.Sprintf("%d WAL bytes / %d acked edges", walBytes, edges))
}

// traceIngest is the traced run: one untraced repetition, one traced
// repetition, then the write and read replays.
func traceIngest(cfg config, res *result, snap string, base *graph.EntityGraph, targets []readSpec, visible readSpec, batches []batch, segments [][]int32, edges int) error {
	p, err := runIngestPass(cfg, 0, snap, targets, visible, batches, segments, nil)
	if err != nil {
		return err
	}
	p.finish(res, len(batches), edges)
	reportReadTail(res)
	reportPercentiles(res, "write", sortedMillis(p.writeLat, p.writeErr), []float64{50, 90})
	reportPercentiles(res, "visible", sortedMillis(p.visible, p.visibleErr), []float64{50})
	if err := verifyIngest(res, p, snap, targets, visible, len(batches)); err != nil {
		return err
	}
	untracedRead, untracedWrite := p.readP50, durMedianMS(p.writeLat)
	p = nil

	tr := newTracer(4*(len(batches)*len(segments[0])+2*len(batches)) + 1024)
	tp, err := runIngestPass(cfg, 1, snap, targets, visible, batches, segments, tr)
	if err != nil {
		return err
	}
	tp.sys.close()
	reportTrace(res, tr.analyze(), tr, untracedRead, durMedianMS(tp.reader.readLat), untracedWrite, durMedianMS(tp.writeLat))
	if err := tr.writeSpans(spanFile(cfg)); err != nil {
		return err
	}
	tp = nil
	if err := replayWrites(res, base, batches, targets); err != nil {
		return err
	}
	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	rr := &readReplay{}
	if err := rr.replayReads(base, score.Compute(base, opts), append(append([]readSpec(nil), targets...), visible), parallelism()); err != nil {
		return err
	}
	rr.report(res)
	if err := replayLoadAndScore(res, map[string]string{"music": snap}, parallelism()); err != nil {
		return err
	}
	res.layer("bench.harness_us", harnessCost(targets, segments), "us", "mean per request against a no-op handler")
	return nil
}

// verifyIngest checks the final state: every read URL answers the same
// bytes as a NoCache server, and recovering the run's WAL resumes at
// exactly the last acked epoch and serves byte-identical bodies.
func verifyIngest(res *result, p *ingestPass, snap string, targets []readSpec, visible readSpec, writes int) error {
	all := append(append([]readSpec(nil), targets...), visible)
	ref := service.New(p.sys.reg)
	ref.NoCache = true
	digest, _ := compareServers(res, "final epoch cached vs NoCache", p.sys.srv, ref, all)
	res.note("digest sha256 over the %d distinct URLs' final-state bodies: %s", len(all), digest)
	p.sys.close()

	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	fresh, err := storage.LoadFile(snap)
	if err != nil {
		return err
	}
	rec, err := service.RecoverLive(fresh, "music", "", p.sys.walDir, opts)
	if err != nil {
		res.check(false, "RecoverLive over the run's WAL: %v", err)
		return nil
	}
	defer rec.WAL.Close()
	got := rec.Live.Snapshot().Epoch
	res.check(got == uint64(writes), "RecoverLive resumed at epoch %d, last acked epoch %d", got, writes)
	reg := service.NewRegistry()
	reg.Parallelism = parallelism()
	if err := reg.AddLive("music", rec.Live); err != nil {
		return err
	}
	recovered, _ := compareServers(res, "recovered vs live", service.New(reg), p.sys.srv, all)
	res.check(recovered == digest, "recovered digest %s, live digest %s", recovered, digest)
	return nil
}

// replayWrites replays the run's batches outside the server, timing the
// dynamic, score and core calls one batch at a time: Live.Apply, then
// Maintained.Refresh with the batch's dirty set and DiscoverAt for each
// reader constraint, on one copy; Graph.Scores and Graph.Freeze on a
// second copy mutated batch by batch.
func replayWrites(res *result, base *graph.EntityGraph, batches []batch, targets []readSpec) error {
	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	dg, err := dynamic.FromEntityGraph(base)
	if err != nil {
		return err
	}
	live, err := dynamic.NewLive(dg, opts)
	if err != nil {
		return err
	}
	type reader struct {
		m *core.Maintained
		c []core.Constraint
	}
	readers := map[measurePair]*reader{}
	for _, t := range targets {
		if t.route != "preview" && t.route != "render" {
			continue
		}
		km, nm, c := constraintOf(t)
		r := readers[measurePair{km, nm}]
		if r == nil {
			r = &reader{m: core.NewMaintained(core.Options{Key: km, NonKey: nm, Parallelism: parallelism()})}
			readers[measurePair{km, nm}] = r
		}
		r.c = append(r.c, c)
	}
	snap := live.Snapshot()
	for _, r := range readers {
		r.m.Refresh(snap.Scores, snap.Epoch, nil, true)
		for _, c := range r.c {
			if _, err := r.m.DiscoverAt(snap.Epoch, c); err != nil {
				return err
			}
		}
	}
	base0 := map[*core.Maintained][2]int64{}
	for _, r := range readers {
		base0[r.m] = [2]int64{r.m.FullSearches(), r.m.CertServes()}
	}
	var apply, refresh, discoverAt []time.Duration
	for _, b := range batches {
		t0 := time.Now()
		snap, err = live.Apply(func(g *dynamic.Graph) error { return applyEdges(g, b.edges) })
		apply = append(apply, time.Since(t0))
		if err != nil {
			return fmt.Errorf("replaying a batch: %w", err)
		}
		for _, r := range readers {
			t0 = time.Now()
			r.m.Refresh(snap.Scores, snap.Epoch, snap.Dirty, snap.Structural)
			refresh = append(refresh, time.Since(t0))
			for _, c := range r.c {
				t0 = time.Now()
				_, err := r.m.DiscoverAt(snap.Epoch, c)
				discoverAt = append(discoverAt, time.Since(t0))
				if err != nil {
					return fmt.Errorf("replaying DiscoverAt at epoch %d: %w", snap.Epoch, err)
				}
			}
		}
	}
	var full, cert int64
	for _, r := range readers {
		full += r.m.FullSearches() - base0[r.m][0]
		cert += r.m.CertServes() - base0[r.m][1]
	}
	us := func(ds []time.Duration) float64 { return durMedianMS(ds) * 1e3 }
	res.layer("dynamic.apply_ms", durMedianMS(apply), "ms", fmt.Sprintf("median Live.Apply, n=%d batches", len(apply)))
	res.layer("core.refresh_us", us(refresh), "us", fmt.Sprintf("median Maintained.Refresh, n=%d (batch, measure pair)", len(refresh)))
	res.layer("core.discover_at_us", us(discoverAt), "us", fmt.Sprintf("median Maintained.DiscoverAt, n=%d (batch, reader constraint)", len(discoverAt)))
	fr := ratio{num: uint64(full), den: uint64(full + cert)}
	res.layer("core.full_search_ratio", fr.value(), "ratio", "FullSearches / (FullSearches + CertServes): "+fr.String())

	dg2, err := dynamic.FromEntityGraph(base)
	if err != nil {
		return err
	}
	if _, err := dg2.Scores(opts); err != nil {
		return err
	}
	var scores, freezes []time.Duration
	for _, b := range batches {
		if err := applyEdges(dg2, b.edges); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := dg2.Scores(opts); err != nil {
			return err
		}
		scores = append(scores, time.Since(t0))
		t0 = time.Now()
		if _, err := dg2.Freeze(); err != nil {
			return err
		}
		freezes = append(freezes, time.Since(t0))
	}
	res.layer("score.refresh_us", us(scores), "us", fmt.Sprintf("median dynamic.Graph.Scores, n=%d batches", len(scores)))
	res.layer("dynamic.freeze_ms", durMedianMS(freezes), "ms", fmt.Sprintf("median dynamic.Graph.Freeze, n=%d batches", len(freezes)))
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
