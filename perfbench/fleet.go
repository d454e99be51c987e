package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uta-db/previewtables/internal/fleet"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
	"github.com/uta-db/previewtables/internal/storage"
)

// fleetGraphs are split across the two shards by the ring. Reads go to
// every graph but fleetWriteGraph, which takes every write: a write then
// never invalidates a listed read, so the read mix is the same on every
// run, while the write path still runs beside it on a shard that serves
// reads too.
//
// The reads are a long tail, mostly follower cache misses, not
// browse-hot's µs cache hits: with those, the run's medians followed the
// host's speed drift (cpu_us_per_req medians of 76–101 us over four
// ten-run sets), beyond any bound a gate may use.
var fleetGraphs = []string{"books", "film", "people", "tv"}

const fleetWriteGraph = "people"

// fleetReadsPerTenSeconds is each client's read count for a 10-second
// run, and writeEvery how many of client 0's reads come between two
// routed writes.
const (
	fleetReadsPerTenSeconds = 10_000
	writeEvery              = 90
)

// loopback is one in-process server on a loopback listener.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

func (lb *loopback) close() {
	_ = lb.srv.Close()
	<-lb.done
}

// appliedWaiter lets the writer wait, without polling, until a
// follower has published an epoch (fed by FollowerOptions.OnApply).
type appliedWaiter struct {
	mu      sync.Mutex
	epoch   uint64
	changed chan struct{}
}

func newAppliedWaiter() *appliedWaiter { return &appliedWaiter{changed: make(chan struct{})} }

func (a *appliedWaiter) applied(e uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e > a.epoch {
		a.epoch = e
	}
	close(a.changed)
	a.changed = make(chan struct{})
}

func (a *appliedWaiter) wait(e uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		a.mu.Lock()
		got, ch := a.epoch, a.changed
		a.mu.Unlock()
		if got >= e {
			return true
		}
		select {
		case <-ch:
		case <-deadline:
			return false
		}
	}
}

// shardNodes is one shard: a durable leader and one follower tailing
// its graphs through the router.
type shardNodes struct {
	id        string
	graphs    []string
	leaderReg *service.Registry
	leaderSrv *service.Server
	leader    *loopback
	wals      []*storage.WAL
	follower  *loopback
	followSrv *service.Server
	followers map[string]*service.Follower
	waiters   map[string]*appliedWaiter
	curWrite  atomic.Int64
	leaderID  uint8
	followID  uint8
}

// fleetSystem is one set-up: the router and its shards.
type fleetSystem struct {
	rt     *fleet.Router
	router *loopback
	shards []*shardNodes
	owner  map[string]*shardNodes
}

func (fs *fleetSystem) close() {
	for _, sh := range fs.shards {
		for _, f := range sh.followers {
			f.Stop()
		}
		if sh.follower != nil {
			sh.follower.close()
		}
	}
	if fs.router != nil {
		fs.router.close()
	}
	for _, sh := range fs.shards {
		if sh.leader != nil {
			sh.leader.close()
		}
		for _, w := range sh.wals {
			w.Close()
		}
	}
}

// fleetShardIDs picks shard IDs under which the ring splits the graphs
// across both shards; the choice is a pure function of the names.
func fleetShardIDs() ([]string, error) {
	for _, ids := range [][]string{{"s1", "s2"}, {"a", "b"}, {"east", "west"}, {"shard-1", "shard-2"}} {
		ring := fleet.NewRing(ids, 0)
		count := map[string]int{}
		for _, g := range fleetGraphs {
			count[ring.Owner(g)]++
		}
		if count[ids[0]] > 0 && count[ids[1]] > 0 {
			return ids, nil
		}
	}
	return nil, errors.New("no candidate shard ids split the fleet graphs")
}

// idleConnsPerHost sizes the process's shared HTTP connection pool. The
// router's proxy and probe clients and every follower's client all use
// http.DefaultTransport; as separate processes each would keep its own
// two idle connections per host, so one pool shared by all of them must
// keep their sum, or the loopback hop re-dials under load.
const idleConnsPerHost = 16

func setupFleet(cfg config, ids []string, paths map[string]string, warm []readSpec, tr *tracer, gen int) (fs *fleetSystem, err error) {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = idleConnsPerHost
	}
	fs = &fleetSystem{owner: map[string]*shardNodes{}}
	defer func() {
		if err != nil {
			fs.close()
		}
	}()
	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	ring := fleet.NewRing(ids, 0)
	root := filepath.Join(cfg.workDir, fmt.Sprintf("fleet-%d", gen))
	var specs []fleet.ShardSpec
	for _, id := range ids {
		sh := &shardNodes{id: id, leaderReg: service.NewRegistry(), followers: map[string]*service.Follower{}, waiters: map[string]*appliedWaiter{}}
		sh.leaderReg.Parallelism = parallelism()
		fs.shards = append(fs.shards, sh)
		walRoot := filepath.Join(root, "leader-"+id)
		if err := sh.leaderReg.EnableFencing(walRoot); err != nil {
			return fs, err
		}
		if tr != nil {
			sh.leaderID = tr.addNode("leader-" + id)
		}
		for _, g := range fleetGraphs {
			if ring.Owner(g) != id {
				continue
			}
			sh.graphs = append(sh.graphs, g)
			fs.owner[g] = sh
			base, err := storage.LoadFile(paths[g])
			if err != nil {
				return fs, err
			}
			rec, err := service.RecoverLive(base, g, "", filepath.Join(walRoot, g), opts)
			if err != nil {
				return fs, err
			}
			sh.wals = append(sh.wals, rec.WAL)
			if err := sh.leaderReg.AddLive(g, rec.Live, service.WithDurability(rec.WAL), service.WithOrigin(rec.Origin, rec.OriginEpoch)); err != nil {
				return fs, err
			}
			if tr != nil {
				// Same append as WithDurability's hook, timed as a storage span.
				rec.Live.SetDurability(tr.walHook(sh.leaderID, &sh.curWrite, rec.WAL.Append))
			}
		}
		sh.leaderSrv = service.New(sh.leaderReg)
		lb, err := listen(tr.wrap(sh.leaderSrv, layerServer, sh.leaderID, &sh.curWrite))
		if err != nil {
			return fs, err
		}
		sh.leader = lb
		specs = append(specs, fleet.ShardSpec{ID: id, Leader: lb.url})
	}
	rt, err := fleet.NewRouter(specs, fleet.RouterOptions{})
	if err != nil {
		return fs, err
	}
	fs.rt = rt
	if fs.router, err = listen(rt); err != nil {
		return fs, err
	}
	for _, sh := range fs.shards {
		reg := service.NewRegistry()
		reg.Parallelism = parallelism()
		for _, g := range sh.graphs {
			w := newAppliedWaiter()
			sh.waiters[g] = w
			f, err := service.StartFollower(reg, g, service.FollowerOptions{
				Leader:  fs.router.url,
				Walk:    opts,
				Wait:    5 * time.Second,
				Backoff: 5 * time.Millisecond,
				OnApply: w.applied,
			})
			if err != nil {
				return fs, err
			}
			sh.followers[g] = f
		}
		if tr != nil {
			sh.followID = tr.addNode("follower-" + sh.id)
		}
		sh.followSrv = service.New(reg)
		lb, err := listen(tr.wrap(sh.followSrv, layerServer, sh.followID, nil))
		if err != nil {
			return fs, err
		}
		sh.follower = lb
		if err := rt.AddFollower(sh.id, lb.url); err != nil {
			return fs, err
		}
	}
	rt.ProbeAll() // activates fencing and learns every follower's lag
	for _, t := range warm {
		if status, _, body := fetch(rt, t.path()); status != http.StatusOK {
			return fs, fmt.Errorf("warm-up GET %s: status %d: %s", t.path(), status, body)
		}
	}
	return fs, nil
}

// cacheStats sums the response-cache counters of every shard server.
func (fs *fleetSystem) cacheStats() (hits, misses uint64) {
	for _, sh := range fs.shards {
		for _, srv := range []*service.Server{sh.leaderSrv, sh.followSrv} {
			h, m := srv.CacheStats()
			hits, misses = hits+h, misses+m
		}
	}
	return hits, misses
}

// fleetPass is one set-up plus timed window of fleet-routed.
type fleetPass struct {
	sys        *fleetSystem
	clients    []*client
	visible    *client // the writer's reads of its own graph, not counted as reads
	setup      time.Duration
	readP50    float64 // ms
	win        *window
	writeLat   []time.Duration
	visibleLat []time.Duration
	replicate  []time.Duration
	probes     []time.Duration
	writeErr   int
	visibleErr int
	acked      uint64 // the written graph's last acked epoch
	hits       uint64
	misses     uint64
}

// fleetInputs are the seeded request lists and write batches.
type fleetInputs struct {
	ids       []string
	paths     map[string]string
	targets   []readSpec
	warm      []readSpec // set-up reads: discovery state only, no listed target
	visible   readSpec   // the written graph's preview, outside targets
	lists     func() [][]int32
	batches   []batch
	writes    int
	probeEach int
}

func runFleetPass(cfg config, rep int, in *fleetInputs, tr *tracer) (*fleetPass, error) {
	p := &fleetPass{}
	runtime.GC()
	t0 := time.Now()
	sys, err := setupFleet(cfg, in.ids, in.paths, in.warm, tr, rep)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	p.sys = sys
	h := tr.wrap(p.sys.rt, layerRouter, 0, nil)
	posts := make([]*http.Request, in.writes)
	for i, b := range in.batches {
		posts[i] = httptest.NewRequest(http.MethodPost, "/v1/graphs/"+fleetWriteGraph+"/edges", bytes.NewReader(b.body))
		posts[i].Header.Set("Content-Type", "application/json")
	}
	p.visible = newClient(2, h, []readSpec{in.visible}, nil)
	p.visible.wantEpoch = true
	for i, ops := range in.lists() {
		c := newClient(i, h, in.targets, ops)
		c.conditional = i == 1
		c.wantEpoch = false // reads spread to replicas may trail the leader
		p.clients = append(p.clients, c)
	}
	for _, c := range append(append([]*client(nil), p.clients...), p.visible) {
		c.trace(tr)
	}
	writer := p.clients[0]
	writer.onWrite = func(i int) { p.write(i, posts[i]) }
	writer.every = in.probeEach
	writer.onEvery = func() {
		t0 := time.Now()
		p.sys.rt.ProbeAll()
		p.probes = append(p.probes, time.Since(t0))
	}
	h0, m0 := p.sys.cacheStats()
	p.win = timeWindow(func() { runAll(p.clients) })
	h1, m1 := p.sys.cacheStats()
	p.hits, p.misses = h1-h0, m1-m0
	return p, nil
}

// write sends routed write i, checks its ack continues its graph's epochs,
// waits (on the follower's apply notification, not by polling) until the
// shard's follower has published it, then reads the graph's preview
// through the router: visible is the time from sending the write to that
// response, which must show the acked epoch.
func (p *fleetPass) write(i int, post *http.Request) {
	g, w := fleetWriteGraph, p.visible
	t0 := time.Now()
	d := w.serve(post)
	w.writes++
	ack := w.sink.epoch
	if w.sink.status != http.StatusOK || ack != int64(p.acked+1) {
		p.writeErr++
		w.fail("POST batch %d to %s: status %d, acked epoch %d, want %d", i, g, w.sink.status, ack, p.acked+1)
		return
	}
	p.acked = uint64(ack)
	p.writeLat = append(p.writeLat, d)
	tAck := time.Now()
	if !p.sys.owner[g].waiters[g].wait(uint64(ack), 10*time.Second) {
		p.visibleErr++
		w.fail("follower of %s never applied epoch %d", g, ack)
		return
	}
	p.replicate = append(p.replicate, time.Since(tAck))
	w.read(0)
	if w.sink.status != http.StatusOK || w.sink.epoch < ack {
		p.visibleErr++
		w.fail("visible read of %s after epoch %d: status %d, epoch %d", g, ack, w.sink.status, w.sink.epoch)
		return
	}
	p.visibleLat = append(p.visibleLat, time.Since(t0))
}

// verifyFleet quiesces the fleet (followers caught up to every acked
// epoch, one probe sweep) and checks that every routed body and ETag
// equal the owning leader's.
func verifyFleet(res *result, p *fleetPass, in *fleetInputs) {
	for _, g := range fleetGraphs {
		want := uint64(0)
		if g == fleetWriteGraph {
			want = p.acked
		}
		f := p.sys.owner[g].followers[g]
		err := f.WaitCaughtUp(want, 10*time.Second)
		res.check(err == nil, "quiesce %s: %v", g, err)
		res.check(f.Applied() == want, "follower of %s at epoch %d, last acked %d", g, f.Applied(), want)
	}
	p.sys.rt.ProbeAll()
	requested := make([]bool, len(in.targets))
	for _, ops := range in.lists() {
		for _, op := range ops {
			if op != opWrite {
				requested[op] = true
			}
		}
	}
	all := []readSpec{in.visible}
	for i, t := range in.targets {
		if requested[i] {
			all = append(all, t)
		}
	}
	digest := sha256.New()
	for _, t := range all {
		path := t.path()
		rs, re, rb := fetch(p.sys.rt, path)
		ls, le, lb := fetch(p.sys.owner[t.graph].leaderSrv, path)
		res.check(rs == http.StatusOK && ls == http.StatusOK && re == le && bytes.Equal(rb, lb),
			"routed vs owning leader GET %s: status %d/%d, ETag %s/%s, %d/%d bytes", path, rs, ls, re, le, len(rb), len(lb))
		fmt.Fprintf(digest, "%s\x00%d\x00", path, len(lb))
		digest.Write(lb)
	}
	res.note("digest sha256 over the %d distinct URLs' final-state bodies: %x", len(all), digest.Sum(nil))
}

func runFleetRouted(cfg config, res *result) error {
	ids, err := fleetShardIDs()
	if err != nil {
		return err
	}
	in := &fleetInputs{ids: ids, paths: map[string]string{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	perClient := scaled(cfg, fleetReadsPerTenSeconds) / repetitions
	in.probeEach = 500
	in.writes = perClient / writeEvery
	readPaths := map[string]string{}
	for _, g := range fleetGraphs {
		path, err := snapshot(cfg, g, 0)
		if err != nil {
			return err
		}
		in.paths[g] = path
		if g != fleetWriteGraph {
			readPaths[g] = path
			continue
		}
		in.visible = readSpec{graph: g, route: "preview", k: 2, n: 5, mode: "concise", key: "coverage", nonkey: "coverage", tuples: 1}
		base, err := storage.LoadFile(path)
		if err != nil {
			return err
		}
		in.batches = makeBatches(rng, base, in.writes, "perfbench")
	}
	lt, err := newLongTail(rng, readPaths, 4, []int{0, 1, 2, 3, 5})
	if err != nil {
		return err
	}
	lt.note(res, "fleet-routed")
	in.targets = lt.targets
	in.warm = append(lt.warm(readPaths), in.visible)
	seed := cfg.seed
	in.lists = func() [][]int32 {
		lists := lt.lists(seed+1, 2, perClient)
		// Client 0 writes once per writeEvery of its reads.
		var ops []int32
		for i, op := range lists[0] {
			ops = append(ops, op)
			if (i+1)%writeEvery == 0 {
				ops = append(ops, opWrite)
			}
		}
		lists[0] = ops
		return lists
	}
	res.note("fleet-routed: shards %v own %v; %d routed writes to %s (one per %d reads of client 0); a probe sweep every %d ops of client 0",
		ids, ownership(ids), in.writes, fleetWriteGraph, writeEvery, in.probeEach)

	if cfg.trace {
		return traceFleet(cfg, res, in)
	}
	var reps []*result
	var writes, visibles []time.Duration
	var writeErrs, visibleErrs int
	var last *fleetPass
	for i := 0; i < repetitions; i++ {
		if last != nil {
			last.sys.close()
			last = nil
		}
		p, err := runFleetPass(cfg, i, in, nil)
		if err != nil {
			return err
		}
		r := &result{}
		p.finish(r, in.writes)
		reps = append(reps, r)
		writes = append(writes, p.writeLat...)
		visibles = append(visibles, p.visibleLat...)
		writeErrs += p.writeErr
		visibleErrs += p.visibleErr
		last = p
	}
	defer last.sys.close()
	mergeReps(res, reps)
	reportReadTail(res)
	reportPercentiles(res, "write", sortedMillis(writes, writeErrs), []float64{50, 90})
	reportPercentiles(res, "visible", sortedMillis(visibles, visibleErrs), []float64{50})
	res.note("write and visible percentiles pool the %d repetitions", repetitions)
	verifyFleet(res, last, in)
	return nil
}

// finish reports one repetition's metrics, then drops the latency
// buffers and measures the heap.
func (p *fleetPass) finish(res *result, writes int) {
	res.e2e("setup_s", p.setup.Seconds(), "s", "load, leader and WAL boot, router, follower bootstrap, probe and warm-up reads")
	readMS := reportReads(res, p.clients)
	p.readP50 = median(readMS)
	writeMS := sortedMillis(p.writeLat, p.writeErr)
	res.attempted += writes + p.visible.reads
	res.failed += p.writeErr + p.visibleErr + p.visible.readFailed
	res.failures = append(res.failures, p.visible.failures...)
	const readLimit, writeLimit = 25 * time.Millisecond, 100 * time.Millisecond
	good := withinLimit(readMS, readLimit) + withinLimit(writeMS, writeLimit)
	requests := p.visible.reads + p.visible.writes
	for _, c := range p.clients {
		requests += c.reads
		c.readLat, c.ops = nil, nil
	}
	p.win.measureHeap()
	reportWindow(res, p.win, good, requests, fmt.Sprintf("%v (reads) / %v (writes)", readLimit, writeLimit))
	hr := ratio{num: p.hits, den: p.hits + p.misses}
	res.layer("service.cache_hit_ratio", hr.value(), "ratio", "Server.CacheStats delta over every shard server: "+hr.String())
	res.layer("service.replicate_ms", durMedianMS(p.replicate), "ms", fmt.Sprintf("median from the leader's ack to the follower's apply, n=%d", len(p.replicate)))
	res.layer("fleet.probe_ms", durMedianMS(p.probes), "ms", fmt.Sprintf("median Router.ProbeAll sweep, n=%d", len(p.probes)))
}

// traceFleet is the traced run: one untraced repetition, one traced
// repetition, then the read replay and the ring timing.
func traceFleet(cfg config, res *result, in *fleetInputs) error {
	p, err := runFleetPass(cfg, 0, in, nil)
	if err != nil {
		return err
	}
	p.finish(res, in.writes)
	reportReadTail(res)
	reportPercentiles(res, "write", sortedMillis(p.writeLat, p.writeErr), []float64{50, 90})
	reportPercentiles(res, "visible", sortedMillis(p.visibleLat, p.visibleErr), []float64{50})
	verifyFleet(res, p, in)
	p.sys.close()
	untracedRead, untracedWrite := p.readP50, durMedianMS(p.writeLat)
	p = nil

	tr := newTracer(3*countOps(in.lists()) + 8*in.writes + 1024) // client, router and shard spans per request
	tp, err := runFleetPass(cfg, 1, in, tr)
	if err != nil {
		return err
	}
	tp.sys.close()
	sum := tr.analyze()
	reportTrace(res, sum, tr, untracedRead, durMedianMS(collectLat(tp.clients)), untracedWrite, durMedianMS(tp.writeLat))
	var follower, routed int
	for _, sh := range tp.sys.shards {
		follower += sum.reads[layerServer].byNode[sh.followID]
		routed += sum.reads[layerServer].byNode[sh.followID] + sum.reads[layerServer].byNode[sh.leaderID]
	}
	sr := ratio{num: uint64(follower), den: uint64(routed)}
	res.layer("fleet.spread_ratio", sr.value(), "ratio", "routed reads answered by a follower: "+sr.String())
	if err := tr.writeSpans(spanFile(cfg)); err != nil {
		return err
	}
	tp = nil
	res.layer("fleet.ring_owner_ns", ringOwnerNS(in.ids), "ns", fmt.Sprintf("median Ring.Owner per routed graph name over %d names", len(fleetGraphs)))

	opts := score.DefaultWalkOptions()
	opts.Parallelism = parallelism()
	rr := &readReplay{}
	for _, g := range fleetGraphs {
		base, err := storage.LoadFile(in.paths[g])
		if err != nil {
			return err
		}
		var specs []readSpec
		for _, t := range append(append([]readSpec(nil), in.targets...), in.visible) {
			if t.graph == g {
				specs = append(specs, t)
			}
		}
		if err := rr.replayReads(base, score.Compute(base, opts), specs, parallelism()); err != nil {
			return err
		}
		if g == fleetWriteGraph {
			if err := replayWrites(res, base, in.batches, specs); err != nil {
				return err
			}
		}
	}
	rr.report(res)
	if err := replayLoadAndScore(res, in.paths, parallelism()); err != nil {
		return err
	}
	res.layer("bench.harness_us", harnessCost(in.targets, in.lists()), "us", "mean per request against a no-op handler")
	return nil
}

func ownership(ids []string) map[string][]string {
	ring := fleet.NewRing(ids, 0)
	out := map[string][]string{}
	for _, g := range fleetGraphs {
		out[ring.Owner(g)] = append(out[ring.Owner(g)], g)
	}
	return out
}

// ringOwnerNS times Ring.Owner for each routed graph name (median of
// 20 000 calls each) and returns the median over names.
func ringOwnerNS(ids []string) float64 {
	ring := fleet.NewRing(ids, 0)
	var per []float64
	for _, g := range fleetGraphs {
		const calls = 20_000
		var samples []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				ringSink = ring.Owner(g)
			}
			samples = append(samples, float64(time.Since(t0))/calls)
		}
		per = append(per, median(samples))
	}
	sort.Float64s(per)
	return median(per)
}

// ringSink keeps the timed Owner calls from being optimized away.
var ringSink string
