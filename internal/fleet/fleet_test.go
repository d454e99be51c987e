package fleet

// The fleet differential harness: an in-process multi-shard topology —
// leader "processes", follower "processes", and the router front door,
// each with its own registry and HTTP listener — plus the headline
// test, which asserts that every read route through the router is
// byte-identical (body AND ETag) to the owning shard's own response
// before, during, and after a leader kill + promotion, under concurrent
// writes.
//
// Byte-identity is asserted at quiesce points: writers pause at a gate,
// followers are waited to the leader's durable epoch, one synchronous
// probe sweep refreshes the router's lag view, and only then are the
// two sides compared. Between quiesce points replicas are eventually
// consistent by design — a probe-aged lag-0 mark can trail the leader
// by in-flight batches — so an instantaneous comparison would assert a
// property the system deliberately does not have.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/service"
)

// leaderProc is one leader "process": the service.Node previewd builds
// for -mutable -wal-dir -checkpoint-dir, with one durable graph per
// name (each WAL-backed), behind its own listener. dead is set by crash: from then on the listener's
// handler aborts every request, as a killed process would.
type leaderProc struct {
	id      string
	reg     *service.Registry
	ts      *httptest.Server
	dead    atomic.Bool
	walRoot string
}

// startLeaderProc boots a leader over root's durable state for shardID;
// a restarted proc (same root) recovers its graphs, the graphs it
// adopted, and its persisted fence — which is exactly what keeps a
// deposed leader deposed. With no graphs it is an empty migration
// target.
func startLeaderProc(t testing.TB, shardID string, graphs []string, root string) *leaderProc {
	t.Helper()
	lp := &leaderProc{id: shardID, walRoot: filepath.Join(root, "leader-"+shardID)}
	var srcs []service.GraphSource
	for _, g := range graphs {
		srcs = append(srcs, service.GraphSource{Name: g, Load: func() (*graph.EntityGraph, error) { return fig1.Graph(), nil }})
	}
	node, err := service.NewNode(service.NodeConfig{
		Graphs:  srcs,
		Mutable: true,
		FollowerOptions: service.FollowerOptions{
			Walk:          score.DefaultWalkOptions(),
			CheckpointDir: filepath.Join(root, "leader-"+shardID+"-ckpt"),
			WALRoot:       lp.walRoot,
			Wait:          150 * time.Millisecond,
			Backoff:       5 * time.Millisecond,
		},
		// No periodic checkpoint fires within a test, so a leader's WAL
		// holds every batch the test wrote.
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	lp.reg = node.Registry()
	lp.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if lp.dead.Load() {
			panic(http.ErrAbortHandler) // severs the connection, no response
		}
		node.Server().ServeHTTP(w, r)
	}))
	t.Cleanup(lp.ts.Close)
	return lp
}

// crash kills the process SIGKILL-style: nothing is flushed or closed
// cleanly — whatever the WAL holds on disk is exactly what a crashed
// process would leave behind. The order matters. Marking the process
// dead first means no request answers from here on, even one arriving
// on a keep-alive connection accepted while the listener was closing;
// closing client connections before the listener would let such a
// connection outlive the crash and keep answering probes, proxied
// writes and replication polls.
func (lp *leaderProc) crash() {
	lp.dead.Store(true)
	lp.ts.Listener.Close()
	lp.ts.CloseClientConnections()
}

// followerProc is one replica "process": a registry hosting one durable
// Follower per shard graph — all tailing THROUGH the router, so a
// leader swap needs no replica reconfiguration — behind its own
// listener. The registry promotes every follower it started at once
// when the router calls the node-level promote route.
type followerProc struct {
	reg *service.Registry
	fs  map[string]*service.Follower
	ts  *httptest.Server
}

func startFollowerProc(t testing.TB, routerURL string, graphs []string, root string) *followerProc {
	t.Helper()
	fp := &followerProc{reg: service.NewRegistry(), fs: map[string]*service.Follower{}}
	ckpt := filepath.Join(root, "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	// A durable replica fences too: it learns the shard's fence from the
	// stamped replication responses it tails through the router, and
	// installs the successor fence when the router promotes it.
	if err := fp.reg.EnableFencing(filepath.Join(root, "wal")); err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs {
		f, err := service.StartFollower(fp.reg, g, service.FollowerOptions{
			Leader:        routerURL,
			Walk:          score.DefaultWalkOptions(),
			CheckpointDir: ckpt,
			WALRoot:       filepath.Join(root, "wal"),
			Wait:          150 * time.Millisecond,
			Backoff:       5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp.fs[g] = f
		t.Cleanup(f.Stop)
	}
	fp.ts = httptest.NewServer(service.New(fp.reg))
	t.Cleanup(fp.ts.Close)
	return fp
}

// fleetHarness is the whole topology: shard leaders, follower procs,
// and the router fronting them.
type fleetHarness struct {
	t       testing.TB
	root    string // the fleet's durable state; a "restarted" proc reuses it
	rt      *Router
	ts      *httptest.Server // the router's front door
	leaders map[string]*leaderProc
	fprocs  map[string][]*followerProc
	byShard map[string][]string
	graphs  []string
}

// startFleet boots leaders, the router, then followersPerShard replica
// processes per shard (tailing through the router) and registers them —
// the same order a rolling deploy would use.
func startFleet(t testing.TB, shardIDs, graphs []string, followersPerShard int, opts RouterOptions) *fleetHarness {
	t.Helper()
	root := t.TempDir()
	ring := NewRing(shardIDs, opts.Vnodes)
	byShard := map[string][]string{}
	for _, g := range graphs {
		owner := ring.Owner(g)
		byShard[owner] = append(byShard[owner], g)
	}
	for _, id := range shardIDs {
		if len(byShard[id]) == 0 {
			t.Fatalf("shard %s owns no graphs; pick graph names that split across %v", id, shardIDs)
		}
	}
	h := &fleetHarness{
		t:       t,
		root:    root,
		leaders: map[string]*leaderProc{},
		fprocs:  map[string][]*followerProc{},
		byShard: byShard,
		graphs:  graphs,
	}
	var specs []ShardSpec
	for _, id := range shardIDs {
		lp := startLeaderProc(t, id, byShard[id], root)
		h.leaders[id] = lp
		specs = append(specs, ShardSpec{ID: id, Leader: lp.ts.URL})
	}
	rt, err := NewRouter(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.rt = rt
	h.ts = httptest.NewServer(rt)
	t.Cleanup(h.ts.Close)
	for _, id := range shardIDs {
		for i := 0; i < followersPerShard; i++ {
			fp := startFollowerProc(t, h.ts.URL, byShard[id], filepath.Join(root, fmt.Sprintf("f-%s-%d", id, i)))
			if err := rt.AddFollower(id, fp.ts.URL); err != nil {
				t.Fatal(err)
			}
			h.fprocs[id] = append(h.fprocs[id], fp)
		}
	}
	return h
}

// leaderBase returns the URL the router currently routes shard writes
// to — the original leader, or the promoted follower after a failover.
func (h *fleetHarness) leaderBase(shardID string) string {
	h.rt.mu.RLock()
	defer h.rt.mu.RUnlock()
	return h.rt.shards[shardID].leader.url
}

// post applies one write batch through the router, returning the status
// and, on success, the acknowledged epoch.
func (h *fleetHarness) post(graph, body string) (int, uint64) {
	resp, err := http.Post(h.ts.URL+"/v1/graphs/"+graph+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, 0 // transport failure: the dead-leader window
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0
	}
	var doc struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		h.t.Errorf("write ack for %s is not JSON: %v (%s)", graph, err, raw)
	}
	return resp.StatusCode, doc.Epoch
}

// mustPost is post for phases where the fleet is healthy.
func (h *fleetHarness) mustPost(graph, body string) uint64 {
	h.t.Helper()
	status, epoch := h.post(graph, body)
	if status != http.StatusOK {
		h.t.Fatalf("write to %s: status %d", graph, status)
	}
	return epoch
}

// statusEpoch asks a node for a graph's published epoch via the
// replication status route — process-agnostic, so it works on original
// leaders and promoted followers alike.
func (h *fleetHarness) statusEpoch(base, graph string) uint64 {
	h.t.Helper()
	resp, err := http.Get(base + "/v1/replication/" + graph + "/status")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		h.t.Fatal(err)
	}
	return doc.Epoch
}

// quiesce waits, for every shard, until every replica process that is
// not currently acting as the shard's leader has applied the leader's
// published epoch, then runs one probe sweep so the router's lag view
// is current. Callers must have paused writers first.
func (h *fleetHarness) quiesce() {
	h.t.Helper()
	for id, procs := range h.fprocs {
		base := h.leaderBase(id)
		for _, g := range h.byShard[id] {
			target := h.statusEpoch(base, g)
			for _, fp := range procs {
				if fp.ts.URL == base {
					continue // promoted: it IS the leader now
				}
				if err := fp.fs[g].WaitCaughtUp(target, 30*time.Second); err != nil {
					h.t.Fatalf("shard %s follower %s on %q: %v", id, fp.ts.URL, g, err)
				}
			}
		}
	}
	h.rt.ProbeAll()
}

// graphReadURLs is the per-graph differential surface: stats, previews
// across measure pairs (with sampled tuples), and markdown rendering.
func graphReadURLs(g string) []string {
	return []string{
		"/v1/graphs/" + g + "/stats",
		"/v1/graphs/" + g + "/preview?k=2&n=3&tuples=3&key=coverage&nonkey=coverage",
		"/v1/graphs/" + g + "/preview?k=3&n=6&tuples=2&key=coverage&nonkey=entropy",
		"/v1/graphs/" + g + "/render?k=2&n=3&tuples=3&key=coverage&nonkey=coverage&format=markdown",
	}
}

// readSurfaces fetches urls from base, folding each response's ETag
// into the compared value: byte-identity must cover the validator, or
// conditional GETs would behave differently through the router.
func readSurfaces(t testing.TB, base string, urls []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(urls))
	for _, u := range urls {
		resp, err := http.Get(base + u)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d body %s", u, resp.StatusCode, raw)
		}
		out[u] = resp.Header.Get("ETag") + "\n" + string(raw)
	}
	return out
}

// assertDifferential compares every graph's read surfaces through the
// router against the owning shard's current leader, directly.
func (h *fleetHarness) assertDifferential(what string) {
	h.t.Helper()
	for id, graphs := range h.byShard {
		base := h.leaderBase(id)
		for _, g := range graphs {
			urls := graphReadURLs(g)
			want := readSurfaces(h.t, base, urls)
			got := readSurfaces(h.t, h.ts.URL, urls)
			for _, u := range urls {
				if got[u] != want[u] {
					h.t.Errorf("%s: GET %s diverged between router and shard %s:\nshard:  %s\nrouter: %s",
						what, u, id, want[u], got[u])
				}
			}
		}
	}
}

// assertSpreadable asserts the router has a caught-up follower to serve
// every graph's reads — i.e. the differential just exercised the
// follower path, not only leader fallback. Valid only right after
// quiesce, and only for shards that still have followers.
func (h *fleetHarness) assertSpreadable(what string) {
	h.t.Helper()
	h.rt.mu.RLock()
	defer h.rt.mu.RUnlock()
	for id, graphs := range h.byShard {
		sh := h.rt.shards[id]
		if len(sh.followers) == 0 {
			continue
		}
		for _, g := range graphs {
			ok := false
			for _, f := range sh.followers {
				if f.fails == 0 && f.lag != nil {
					if lag, known := f.lag[g]; known && lag == 0 {
						ok = true
					}
				}
			}
			if !ok {
				h.t.Errorf("%s: no caught-up follower for %q on shard %s; reads were not spread", what, g, id)
			}
		}
	}
}

// assertMergedList checks the router's /v1/graphs: the union of every
// shard's entries, spliced verbatim and sorted by name, under a strong
// ETag honoring If-None-Match, with HEAD serving GET's headers bodiless.
func (h *fleetHarness) assertMergedList(what string) {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + "/v1/graphs")
	if err != nil {
		h.t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("%s: merged list status %d", what, resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		h.t.Fatalf("%s: merged list has no ETag", what)
	}
	var doc struct {
		Graphs []json.RawMessage `json:"graphs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		h.t.Fatalf("%s: merged list not JSON: %v", what, err)
	}
	merged := map[string]string{}
	var order []string
	for _, e := range doc.Graphs {
		var peek struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(e, &peek); err != nil {
			h.t.Fatal(err)
		}
		merged[peek.Name] = string(e)
		order = append(order, peek.Name)
	}
	if !sort.StringsAreSorted(order) {
		h.t.Errorf("%s: merged list not sorted by name: %v", what, order)
	}
	total := 0
	for id := range h.byShard {
		sresp, err := http.Get(h.leaderBase(id) + "/v1/graphs")
		if err != nil {
			h.t.Fatal(err)
		}
		sraw, _ := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		var sdoc struct {
			Graphs []json.RawMessage `json:"graphs"`
		}
		if err := json.Unmarshal(sraw, &sdoc); err != nil {
			h.t.Fatal(err)
		}
		for _, e := range sdoc.Graphs {
			var peek struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e, &peek); err != nil {
				h.t.Fatal(err)
			}
			total++
			if got, ok := merged[peek.Name]; !ok || got != string(e) {
				h.t.Errorf("%s: merged entry for %q is not the shard's bytes:\nshard:  %s\nmerged: %s",
					what, peek.Name, e, got)
			}
		}
	}
	if len(merged) != total {
		h.t.Errorf("%s: merged list has %d entries, shards have %d", what, len(merged), total)
	}

	// Conditional GET against the derived ETag.
	req, _ := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/graphs", nil)
	req.Header.Set("If-None-Match", etag)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotModified {
		h.t.Errorf("%s: conditional merged list = %d, want 304", what, cresp.StatusCode)
	}
	// HEAD mirrors GET's validator with no body.
	hreq, _ := http.NewRequest(http.MethodHead, h.ts.URL+"/v1/graphs", nil)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		h.t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || len(hraw) != 0 || hresp.Header.Get("ETag") != etag {
		h.t.Errorf("%s: HEAD merged list: status %d, %d body bytes, etag %q (want 200, 0, %q)",
			what, hresp.StatusCode, len(hraw), hresp.Header.Get("ETag"), etag)
	}
}

func writeBody(graph string, i int) string {
	return fmt.Sprintf(`{"edges":[{"from":"Film %s-%04d","rel":"Genres","from_type":%q,"to_type":%q,"to":"Action Film"}]}`,
		graph, i, fig1.Film, fig1.FilmGenre)
}

// TestFleetDifferential is the acceptance test: a 2-shard fleet, two
// replicas per shard, all reads through the router byte-identical to
// the owning shard before, during, and after a leader kill + follower
// promotion, with concurrent writers running across every graph the
// whole time (pausing only at the comparison quiesce points).
func TestFleetDifferential(t *testing.T) {
	shardIDs := []string{"alpha", "beta"}
	graphs := []string{"atlas", "cedar", "delta", "briar", "grove", "heath"}
	h := startFleet(t, shardIDs, graphs, 2, RouterOptions{FailAfter: 2, Logf: t.Logf})

	// Phase "before": a couple of quiet batches per graph, in parallel
	// across graphs, then quiesce and compare.
	maxAcked := struct {
		sync.Mutex
		m map[string]uint64
	}{m: map[string]uint64{}}
	ack := func(g string, epoch uint64) {
		maxAcked.Lock()
		if epoch > maxAcked.m[g] {
			maxAcked.m[g] = epoch
		}
		maxAcked.Unlock()
	}
	var wg sync.WaitGroup
	for _, g := range graphs {
		wg.Add(1)
		go func(g string) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				ack(g, h.mustPost(g, writeBody(g, i)))
			}
		}(g)
	}
	wg.Wait()
	h.quiesce()
	h.assertDifferential("before")
	h.assertSpreadable("before")
	h.assertMergedList("before")

	// Concurrent writers for the rest of the test: one per graph,
	// pausable at a gate, tolerant of the dead-leader window (failed
	// writes are simply not acked).
	var gate sync.RWMutex
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for _, g := range graphs {
		writers.Add(1)
		go func(g string) {
			defer writers.Done()
			for i := 100; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gate.RLock()
				status, epoch := h.post(g, writeBody(g, i))
				gate.RUnlock()
				if status == http.StatusOK {
					ack(g, epoch)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}

	// Phase "during": writers mid-flight, pause at the gate, quiesce,
	// compare, resume.
	time.Sleep(50 * time.Millisecond)
	gate.Lock()
	h.quiesce()
	h.assertDifferential("during concurrent writes")
	h.assertSpreadable("during concurrent writes")
	h.assertMergedList("during concurrent writes")

	// Snapshot the acked epochs while the gate is held: the quiesce
	// above proved every replica has applied them, so whichever
	// replica wins the promotion must still hold them. Acks issued
	// between here and the kill are deliberately NOT covered —
	// replication is asynchronous, so an epoch no replica had pulled
	// yet dies with the leader; the fault-injection test pins down
	// that exact boundary against the dead leader's WAL.
	maxAcked.Lock()
	ackedAlpha := map[string]uint64{}
	for _, g := range h.byShard["alpha"] {
		ackedAlpha[g] = maxAcked.m[g]
	}
	maxAcked.Unlock()
	gate.Unlock()

	// Kill shard alpha's leader mid-traffic and let the router notice:
	// FailAfter consecutive failed sweeps, then promotion of the
	// most-advanced replica.
	time.Sleep(25 * time.Millisecond)
	oldLeader := h.leaderBase("alpha")
	h.leaders["alpha"].crash()
	h.rt.ProbeAll()
	h.rt.ProbeAll()
	if got := h.rt.Failovers(); got != 1 {
		t.Fatalf("failovers = %d after two failed sweeps, want 1", got)
	}
	newLeader := h.leaderBase("alpha")
	if newLeader == oldLeader {
		t.Fatalf("shard alpha still led by the dead %s", oldLeader)
	}
	promoted := false
	for _, fp := range h.fprocs["alpha"] {
		if fp.ts.URL == newLeader {
			promoted = true
		}
	}
	if !promoted {
		t.Fatalf("new leader %s is not one of alpha's replicas", newLeader)
	}

	// Writers keep running against the promoted leader; the survivor
	// replica re-tails through the router without reconfiguration.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	writers.Wait()

	// Every epoch acked at the last quiesce before the kill must still
	// be served: the promoted node's published epoch is at least the
	// max acked-and-replicated one.
	for g, acked := range ackedAlpha {
		if got := h.statusEpoch(newLeader, g); got < acked {
			t.Errorf("promoted leader serves %q at epoch %d, below the acked %d: acknowledged writes lost", g, got, acked)
		}
	}

	// Phase "after": post-failover writes must succeed through the
	// router for every graph (proving the swap is live), then quiesce
	// and compare — including the merged list, now spliced from the
	// promoted leader.
	for _, g := range graphs {
		ack(g, h.mustPost(g, writeBody(g, 9999)))
	}
	h.quiesce()
	h.assertDifferential("after promotion")
	h.assertSpreadable("after promotion")
	h.assertMergedList("after promotion")
}
