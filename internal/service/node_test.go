package service

// Node tests: startup validation of every rejected flag combination,
// every node role built through NewNode and restarted over its own
// directories, and a graph's round trip between two migration nodes,
// which pins the one-owner rule for its checkpointer (a re-adopted
// graph's checkpoint truncates the WAL it writes now, not one a drop
// already closed) and the restart path that re-registers adopted graphs.

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/wire"
)

// fig1Source registers the paper's Fig. 1 graph under name.
func fig1Source(name string) GraphSource {
	return GraphSource{Name: name, Load: func() (*graph.EntityGraph, error) { return fig1.Graph(), nil }}
}

// fig1ParallelSource registers Fig. 1 with every edge doubled under name:
// a multigraph, whose counts a checkpoint must carry copy for copy.
func fig1ParallelSource(name string) GraphSource {
	return GraphSource{Name: name, Load: func() (*graph.EntityGraph, error) {
		src := fig1.Graph()
		var b graph.Builder
		for t := 0; t < src.NumTypes(); t++ {
			b.Type(src.TypeName(graph.TypeID(t)))
		}
		for r := 0; r < src.NumRelTypes(); r++ {
			rt := src.RelType(graph.RelTypeID(r))
			b.RelType(rt.Name, rt.From, rt.To)
		}
		for e := 0; e < src.NumEntities(); e++ {
			ent := src.Entity(graph.EntityID(e))
			b.Entity(ent.Name, ent.Types...)
		}
		for i := 0; i < src.NumEdges(); i++ {
			ed := src.Edge(graph.EdgeID(i))
			b.Edge(ed.From, ed.To, ed.Rel)
			b.Edge(ed.From, ed.To, ed.Rel)
		}
		return b.Build()
	}}
}

// nodeStorage lays a node out as previewd -wal-dir root/wal
// -checkpoint-dir root/ckpt does, with test-friendly follower timings.
func nodeStorage(root string) FollowerOptions {
	return FollowerOptions{
		Walk:          score.DefaultWalkOptions(),
		CheckpointDir: filepath.Join(root, "ckpt"),
		WALRoot:       filepath.Join(root, "wal"),
		Wait:          150 * time.Millisecond,
		Backoff:       5 * time.Millisecond,
	}
}

// startNode builds cfg and closes the node at cleanup. The checkpoint
// loop idles (tests run passes synchronously) unless cfg sets its own
// interval.
func startNode(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = time.Hour
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestNodeStartupValidation(t *testing.T) {
	loaded := false
	load := func() (*graph.EntityGraph, error) {
		loaded = true
		return fig1.Graph(), nil
	}
	graphs := []GraphSource{{Name: "g", Load: load}}
	dir := t.TempDir()
	const leader = "http://127.0.0.1:1"
	for _, tc := range []struct {
		name     string
		cfg      NodeConfig
		flag     string // the error must name it
		sentinel error
	}{
		{"nothing to serve", NodeConfig{}, "-graph", ErrNoGraphs},
		{"checkpoints of static graphs", NodeConfig{Graphs: graphs, FollowerOptions: FollowerOptions{CheckpointDir: dir}}, "-checkpoint-dir", nil},
		{"WAL of static graphs", NodeConfig{Graphs: graphs, FollowerOptions: FollowerOptions{WALRoot: dir}}, "-wal-dir", nil},
		{"checkpoint interval not positive", NodeConfig{Graphs: graphs, Mutable: true, FollowerOptions: FollowerOptions{CheckpointDir: dir}}, "-checkpoint-interval", nil},
		{"follower with graphs", NodeConfig{Graphs: graphs, FollowerOptions: FollowerOptions{Leader: leader}}, "-follow", nil},
		{"mutable follower", NodeConfig{Mutable: true, FollowerOptions: FollowerOptions{Leader: leader}}, "-mutable", nil},
		{"durable follower without WAL", NodeConfig{FollowerOptions: FollowerOptions{Leader: leader, CheckpointDir: dir}, CheckpointInterval: time.Second}, "-wal-dir", nil},
		// The WAL root holds the node's fence manifest, which the
		// checkpoint manifest of a graph named fence would overwrite.
		{"checkpoint dir is the WAL dir", NodeConfig{Graphs: graphs, Mutable: true, FollowerOptions: FollowerOptions{CheckpointDir: dir + "/", WALRoot: filepath.Join(dir, "x", "..")}, CheckpointInterval: time.Second}, "-checkpoint-dir", nil},
		{"follower checkpoint dir is the WAL dir", NodeConfig{FollowerOptions: FollowerOptions{Leader: leader, CheckpointDir: dir, WALRoot: dir}, CheckpointInterval: time.Second}, "-wal-dir", nil},
		// A graph's WAL is <wal-dir>/<name>: these would be the WAL root's
		// parent and the WAL root itself.
		{"graph named ..", NodeConfig{Graphs: []GraphSource{{Name: "..", Load: load}}, Mutable: true, FollowerOptions: FollowerOptions{WALRoot: dir}}, "-graph", nil},
		{"graph named .", NodeConfig{Graphs: []GraphSource{{Name: ".", Load: load}}, Mutable: true, FollowerOptions: FollowerOptions{WALRoot: dir}}, "-graph", nil},
	} {
		n, err := NewNode(tc.cfg)
		if err == nil {
			n.Close()
			t.Errorf("%s: NewNode accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: error %q is not %v", tc.name, err, tc.sentinel)
		}
	}
	if loaded {
		t.Error("a rejected configuration loaded its graphs")
	}
}

// TestNodeRoles builds each role of ARCHITECTURE's node-role table
// through NewNode. A write is accepted, or refused as documented: 405 on
// a static graph, 503 naming the leader on a follower. Every role that
// persists comes back from Close and a NewNode over the same directories
// at the same epoch with identical reads on every surface, ETags
// included, from a checkpoint too. The parallel rows serve Fig. 1 with
// every edge doubled and write one more parallel copy: a restart, from a
// checkpoint too, counts every copy the live graph counted.
func TestNodeRoles(t *testing.T) {
	const g = "fig1" // replBatches' and replReadURLs' graph
	for _, tc := range []struct {
		name          string
		mutable, warm bool
		ckpt, wal     bool // -checkpoint-dir, -wal-dir
		follow        bool // -follow a durable leader Node that takes the writes
		write         int  // what a write to the node answers
		restart       bool // the role persists across Close and NewNode
		parallel      bool // a graph with parallel duplicate edges
	}{
		{name: "static", warm: true, write: http.StatusMethodNotAllowed},
		{name: "volatile mutable", mutable: true, write: http.StatusOK},
		{name: "volatile mutable with -checkpoint-dir", mutable: true, ckpt: true, write: http.StatusOK, restart: true},
		{name: "durable leader", mutable: true, wal: true, write: http.StatusOK, restart: true},
		{name: "durable leader with -checkpoint-dir", mutable: true, ckpt: true, wal: true, write: http.StatusOK, restart: true},
		{name: "volatile follower", follow: true, write: http.StatusServiceUnavailable},
		{name: "durable follower", follow: true, ckpt: true, wal: true, write: http.StatusServiceUnavailable, restart: true},
		{name: "volatile mutable with -checkpoint-dir, parallel edges", mutable: true, ckpt: true, write: http.StatusOK, restart: true, parallel: true},
		{name: "durable leader, parallel edges", mutable: true, wal: true, write: http.StatusOK, restart: true, parallel: true},
		{name: "durable leader with -checkpoint-dir, parallel edges", mutable: true, ckpt: true, wal: true, write: http.StatusOK, restart: true, parallel: true},
		{name: "durable follower, parallel edges", follow: true, ckpt: true, wal: true, write: http.StatusServiceUnavailable, restart: true, parallel: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := nodeStorage(t.TempDir())
			if !tc.ckpt {
				opts.CheckpointDir = ""
			}
			if !tc.wal {
				opts.WALRoot = ""
			}
			cfg := NodeConfig{Mutable: tc.mutable, FollowerOptions: opts, Warm: tc.warm}
			src := fig1Source(g)
			// The batches after the first write: a parallel row repeats the
			// first write, so the batches add a parallel copy too.
			batches := replBatches[1:3:3]
			if tc.parallel {
				src = fig1ParallelSource(g)
				batches = append(batches, replBatches[0])
			}
			var leader *httptest.Server
			if tc.follow {
				leader = httptest.NewServer(startNode(t, NodeConfig{Graphs: []GraphSource{src}, Mutable: true, FollowerOptions: nodeStorage(t.TempDir())}).Server())
				t.Cleanup(leader.Close)
				cfg.Leader = leader.URL
			} else {
				cfg.Graphs = []GraphSource{src}
			}
			n := startNode(t, cfg)
			if tc.warm && n.Registry().ScoreComputes() != 1 {
				t.Fatalf("-warm computed scores %d times before serving, want 1", n.Registry().ScoreComputes())
			}
			if gr, _ := n.Registry().Get(g); tc.warm && !gr.Entity().HasNameOrder() {
				t.Fatal("-warm served before deriving the graph's name order")
			}
			ts := httptest.NewServer(n.Server())
			t.Cleanup(ts.Close)

			resp, err := http.Post(ts.URL+"/v1/graphs/fig1/"+replBatches[0].route, "application/json", strings.NewReader(replBatches[0].body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.write {
				t.Fatalf("write answered %d, want %d", resp.StatusCode, tc.write)
			}
			if tc.follow && resp.Header.Get(wire.LeaderHeader) != leader.URL {
				t.Fatalf("refused write names leader %q, want %q", resp.Header.Get(wire.LeaderHeader), leader.URL)
			}
			switch {
			case tc.follow:
				for _, b := range append(replBatches[:1:1], batches...) {
					postBatch(t, leader, b.route, b.body)
				}
				if err := n.Registry().followers()[0].WaitCaughtUp(uint64(1+len(batches)), 30*time.Second); err != nil {
					t.Fatal(err)
				}
			case tc.mutable:
				for _, b := range batches {
					postBatch(t, ts, b.route, b.body)
				}
			}
			if !tc.restart {
				return
			}

			if tc.ckpt {
				n.checkpoint()
			}
			want, epoch := readSurfaces(t, ts.URL, replReadURLs), nodeEpoch(t, n, g)
			ts.Close()
			n.Close()
			n = startNode(t, cfg)
			ts = httptest.NewServer(n.Server())
			t.Cleanup(ts.Close)
			if got := nodeEpoch(t, n, g); got != epoch {
				t.Fatalf("restarted at epoch %d, want %d", got, epoch)
			}
			assertIdenticalReads(t, "before and after the restart", want, readSurfaces(t, ts.URL, replReadURLs))
			if tc.follow {
				if st := n.Registry().followers()[0].Status(); st.Bootstraps != 0 {
					t.Fatalf("restarted follower bootstrapped %d times, want 0 (local resume)", st.Bootstraps)
				}
			}
		})
	}
}

// do sends one request and returns its status and body.
func do(t testing.TB, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// migrate moves graph g from the node at src to dst through the admin
// routes, in the fleet router's order (fencing aside, since neither node
// has been fenced): adopt on dst, wait until dst has applied src's
// durable epoch, promote on dst, drop on src.
func migrate(t *testing.T, g string, src *httptest.Server, dst *Node, dstTS *httptest.Server) {
	t.Helper()
	if status, body := do(t, "POST", dstTS.URL+"/v1/replication/"+g+"/adopt", `{"source":"`+src.URL+`"}`); status != http.StatusOK {
		t.Fatalf("adopt %s: %d %s", g, status, body)
	}
	var st replStatusDoc
	if status := getJSON(t, src.URL+"/v1/replication/"+g+"/status", &st); status != http.StatusOK {
		t.Fatalf("source status of %s: %d", g, status)
	}
	dst.mu.Lock()
	f := dst.adopting[g]
	dst.mu.Unlock()
	if err := f.WaitCaughtUp(st.DurableEpoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if status, body := do(t, "POST", dstTS.URL+"/v1/replication/"+g+"/promote", ""); status != http.StatusOK {
		t.Fatalf("promote %s: %d %s", g, status, body)
	}
	if status, body := do(t, "DELETE", src.URL+"/v1/graphs/"+g, ""); status != http.StatusOK {
		t.Fatalf("drop %s: %d %s", g, status, body)
	}
}

func nodeEpoch(t testing.TB, n *Node, g string) uint64 {
	t.Helper()
	gr, ok := n.Registry().Get(g)
	if !ok {
		t.Fatalf("graph %q is not registered", g)
	}
	return gr.Live().Snapshot().Epoch
}

// TestNodeMigrationRoundTrip moves a graph from node A to an empty
// migration target B, restarts B, and moves the graph back. B must
// re-register the adopted graph at the same epoch with identical bytes,
// and once it is back, one checkpoint pass on A must truncate the WAL A
// writes for it now — the one a first-time adoption also truncates.
func TestNodeMigrationRoundTrip(t *testing.T) {
	const g = "fig1" // replReadURLs' graph
	root := t.TempDir()
	cfgA := NodeConfig{Graphs: []GraphSource{fig1Source(g)}, Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "a"))}
	cfgB := NodeConfig{Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "b"))}
	a := startNode(t, cfgA)
	aTS := httptest.NewServer(a.Server())
	t.Cleanup(aTS.Close)
	b := startNode(t, cfgB)
	bTS := httptest.NewServer(b.Server())

	postBatch(t, aTS, replBatches[0].route, replBatches[0].body)
	postBatch(t, aTS, replBatches[1].route, replBatches[1].body)
	migrate(t, g, aTS, b, bTS)
	postBatch(t, bTS, replBatches[2].route, replBatches[2].body)

	// Restart B over its own directories: no flag names the adopted
	// graph, so its checkpoint manifest is how B finds it again.
	want, epoch := readSurfaces(t, bTS.URL, replReadURLs), nodeEpoch(t, b, g)
	bTS.Close()
	b.Close()
	b = startNode(t, cfgB)
	bTS = httptest.NewServer(b.Server())
	t.Cleanup(bTS.Close)
	if got := nodeEpoch(t, b, g); got != epoch {
		t.Fatalf("restarted target re-registered %q at epoch %d, want %d", g, got, epoch)
	}
	assertIdenticalReads(t, "target before and after restart", want, readSurfaces(t, bTS.URL, replReadURLs))

	migrate(t, g, bTS, a, aTS)
	postBatch(t, aTS, replBatches[3].route, replBatches[3].body)
	a.checkpoint()
	_, ckEpoch, ok, err := storage.LoadLatestCheckpoint(cfgA.CheckpointDir, g)
	if err != nil || !ok {
		t.Fatalf("no checkpoint of %q after the pass: ok=%v err=%v", g, ok, err)
	}
	if cur := nodeEpoch(t, a, g); ckEpoch != cur {
		t.Fatalf("checkpoint pass saved epoch %d, want the current %d", ckEpoch, cur)
	}
	segs, err := filepath.Glob(filepath.Join(cfgA.WALRoot, g, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		first, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(seg), ".wal"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if first <= ckEpoch {
			t.Errorf("WAL segment %s starts at epoch %d, at or below the checkpointed %d: the checkpoint did not truncate the WAL the graph writes", filepath.Base(seg), first, ckEpoch)
		}
	}
}

// TestNodeCheckpointLoopDuringMigration runs both nodes' checkpoint
// loops every millisecond while a graph migrates back and forth under
// writes, so passes race adoption, promotion and drop (run it under
// -race). A pass may truncate the source's WAL; an adoption bootstraps
// from the current snapshot either way.
func TestNodeCheckpointLoopDuringMigration(t *testing.T) {
	const g = "fig1"
	root := t.TempDir()
	nodes := make([]*Node, 2)
	servers := make([]*httptest.Server, 2)
	for i, cfg := range []NodeConfig{
		{Graphs: []GraphSource{fig1Source(g)}, Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "a"))},
		{Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "b"))},
	} {
		cfg.CheckpointInterval = time.Millisecond
		nodes[i] = startNode(t, cfg)
		servers[i] = httptest.NewServer(nodes[i].Server())
		t.Cleanup(servers[i].Close)
	}
	owner := 0
	for i, b := range replBatches {
		postBatch(t, servers[owner], b.route, b.body)
		migrate(t, g, servers[owner], nodes[1-owner], servers[1-owner])
		owner = 1 - owner
		if got := nodeEpoch(t, nodes[owner], g); got != uint64(i+1) {
			t.Fatalf("after move %d the new owner serves epoch %d, want %d", i+1, got, i+1)
		}
	}
	for _, n := range nodes {
		n.Close() // waits for the loop to exit
	}
	nodes[owner].checkpoint()
	_, ckEpoch, ok, err := storage.LoadLatestCheckpoint(nodes[owner].cfg.CheckpointDir, g)
	if err != nil || !ok || ckEpoch != uint64(len(replBatches)) {
		t.Fatalf("final checkpoint: epoch %d ok=%v err=%v, want epoch %d", ckEpoch, ok, err, len(replBatches))
	}
	if recs, err := storage.ReplayWAL(filepath.Join(nodes[owner].cfg.WALRoot, g)); err != nil || len(recs) != 0 {
		t.Fatalf("owner's WAL after the final checkpoint: %d records, err %v; want it truncated", len(recs), err)
	}
}

// TestNodeAdoptsGraphNamedFence moves a graph named fence onto a
// migration node and restarts that node. The graph's checkpoint manifest
// has the file name of the node's fence manifest, but the fence's lives
// in -wal-dir, which must be another directory, so the restart
// re-registers the graph like any adopted one, at its epoch and with the
// same bytes.
func TestNodeAdoptsGraphNamedFence(t *testing.T) {
	const g = "fence"
	urls := []string{
		"/v1/graphs/" + g + "/stats",
		"/v1/graphs/" + g + "/preview?k=2&n=3&tuples=3&key=coverage&nonkey=entropy",
	}
	root := t.TempDir()
	a := startNode(t, NodeConfig{Graphs: []GraphSource{fig1Source(g)}, Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "a"))})
	aTS := httptest.NewServer(a.Server())
	t.Cleanup(aTS.Close)
	cfgB := NodeConfig{Mutable: true, FollowerOptions: nodeStorage(filepath.Join(root, "b"))}
	b := startNode(t, cfgB)
	bTS := httptest.NewServer(b.Server())
	write := func(ts *httptest.Server, i int) {
		t.Helper()
		if status, body := do(t, "POST", ts.URL+"/v1/graphs/"+g+"/"+replBatches[i].route, replBatches[i].body); status != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, status, body)
		}
	}
	write(aTS, 0)
	write(aTS, 1)
	migrate(t, g, aTS, b, bTS)
	write(bTS, 2)

	want, epoch := readSurfaces(t, bTS.URL, urls), nodeEpoch(t, b, g)
	bTS.Close()
	b.Close()
	b = startNode(t, cfgB)
	bTS = httptest.NewServer(b.Server())
	t.Cleanup(bTS.Close)
	if got := nodeEpoch(t, b, g); got != epoch || got != 3 {
		t.Fatalf("restarted target re-registered %q at epoch %d, want %d", g, got, epoch)
	}
	assertIdenticalReads(t, "target before and after restart", want, readSurfaces(t, bTS.URL, urls))
}
