package service

// Replication tests: the proof obligations of WAL shipping.
//
//   - the differential e2e test pins the headline invariant: a caught-up
//     follower serves byte-identical bodies on every read endpoint,
//     including after being killed and restarted from its local state;
//   - the contiguity property pins the epoch discipline under
//     interleaved writes, dropped connections and follower restarts;
//   - the corruption tests pin that nothing damaged is ever published —
//     a flipped byte mid-stream or mid-local-WAL costs a re-sync from
//     the last good epoch, never a corrupt epoch;
//   - the route-discipline table locks the unified 404/405/503 ordering
//     across leader and follower modes.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/wire"
)

// followerNode is one follower "process": its own registry, HTTP server
// and replication loop, resumable from ckptDir/walRoot.
type followerNode struct {
	reg *Registry
	f   *Follower
	ts  *httptest.Server
}

// startFollowerNode boots a follower of leaderURL with test-friendly
// poll timings. Empty dirs mean a volatile follower.
func startFollowerNode(t testing.TB, leaderURL, ckptDir, walRoot string, mut ...func(*FollowerOptions)) *followerNode {
	t.Helper()
	opts := FollowerOptions{
		Leader:        leaderURL,
		Walk:          score.DefaultWalkOptions(),
		CheckpointDir: ckptDir,
		WALRoot:       walRoot,
		Wait:          150 * time.Millisecond,
		Backoff:       5 * time.Millisecond,
	}
	for _, m := range mut {
		m(&opts)
	}
	reg := NewRegistry()
	f, err := StartFollower(reg, "fig1", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	return &followerNode{reg: reg, f: f, ts: ts}
}

// replBatches are self-contained, pairwise-independent write batches —
// every edge fully typed, no edge repeated — so they can be applied
// concurrently in any order and still leave leader and follower replays
// byte-comparable (no multigraph dedup divergence).
var replBatches = []struct{ route, body string }{
	{"edges", `{"edges":[{"from":"Gattaca","rel":"Genres","from_type":"` + fig1.Film + `","to_type":"` + fig1.FilmGenre + `","to":"Science Fiction"}]}`},
	{"edges", `{"edges":[{"from":"Andrew Niccol","rel":"Director","from_type":"` + fig1.FilmDirector + `","to_type":"` + fig1.Film + `","to":"Gattaca"}]}`},
	{"triples", "type \"STUDIO\"\nentity \"Columbia Pictures\" \"STUDIO\"\n" +
		"edge \"Columbia Pictures\" \"Produced By\" \"STUDIO\" \"" + fig1.Film + "\" \"Gattaca\"\n"},
	{"edges", `{"edges":[{"from":"Uma Thurman","rel":"Actor","from_type":"` + fig1.FilmActor + `","to_type":"` + fig1.Film + `","to":"Gattaca"}]}`},
	{"edges", `{"edges":[{"from":"Kill Bill","rel":"Genres","from_type":"` + fig1.Film + `","to_type":"` + fig1.FilmGenre + `","to":"Action Film"}]}`},
	{"triples", "edge \"Uma Thurman\" \"Actor\" \"" + fig1.FilmActor + "\" \"" + fig1.Film + "\" \"Kill Bill\"\n"},
}

// replReadURLs is every read surface the differential test compares —
// the /v1/graphs list, stats, JSON previews across measure pairs and
// modes (with sampled tuples), and the markdown rendering.
var replReadURLs = []string{
	"/v1/graphs",
	"/v1/graphs/fig1/stats",
	"/v1/graphs/fig1/preview?k=2&n=3&tuples=3&key=coverage&nonkey=coverage",
	"/v1/graphs/fig1/preview?k=3&n=6&tuples=2&key=coverage&nonkey=entropy",
	"/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2&key=walk&nonkey=entropy",
	"/v1/graphs/fig1/render?k=2&n=3&tuples=3&key=coverage&nonkey=coverage&format=markdown",
}

// readSurfaces fetches urls. Bodies carry no timing field, so leader
// and follower are compared raw, byte for byte — and their ETags must
// agree too (same graph, same epoch, same canonical key mint the same
// strong validator on both nodes), so the tag is folded into the
// compared value.
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

func assertIdenticalReads(t *testing.T, what string, leader, follower map[string]string) {
	t.Helper()
	for u, want := range leader {
		if got, ok := follower[u]; !ok || got != want {
			t.Errorf("%s: GET %s diverged between leader and follower:\nleader:   %s\nfollower: %s", what, u, want, got)
		}
	}
}

// TestReplicationDifferential is the acceptance test: concurrent write
// batches land on a live leader; a follower started with nothing but the
// leader's address reaches the leader's epoch and serves byte-identical
// bodies on every read endpoint; killing the follower and restarting it
// from its local checkpoint + WAL preserves both properties, without
// re-shipping history it already holds.
func TestReplicationDifferential(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))

	fCkpt := filepath.Join(root, "follower-ckpt")
	fWAL := filepath.Join(root, "follower-wal")
	if err := os.MkdirAll(fCkpt, 0o755); err != nil {
		t.Fatal(err)
	}
	node := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL)

	// Concurrent writers: the batches are order-independent, so whatever
	// order the leader serializes them in is the order the WAL ships.
	var wg sync.WaitGroup
	for _, b := range replBatches {
		wg.Add(1)
		go func(route, body string) {
			defer wg.Done()
			postBatch(t, leader.ts, route, body)
		}(b.route, b.body)
	}
	wg.Wait()
	wantEpoch := uint64(len(replBatches))
	if got := leader.live.Snapshot().Epoch; got != wantEpoch {
		t.Fatalf("leader epoch = %d, want %d", got, wantEpoch)
	}
	if err := node.f.WaitCaughtUp(wantEpoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReads(t, "after catch-up",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node.ts.URL, replReadURLs))

	// A write to the follower is redirected, not applied.
	status, raw := post(t, node.ts.URL+"/v1/graphs/fig1/edges", replBatches[0].body)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(raw), leader.ts.URL) {
		t.Fatalf("follower write: status %d body %s, want 503 naming the leader", status, raw)
	}
	if got := node.f.Applied(); got != wantEpoch {
		t.Fatalf("redirected write moved the follower to epoch %d", got)
	}

	// Kill the follower (SIGKILL-style: loop stopped, listener gone) and
	// restart it from its own durable state.
	node.f.Stop()
	node.ts.Close()
	node2 := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL)
	if got := node2.f.Applied(); got != wantEpoch {
		t.Fatalf("restarted follower resumed at epoch %d, want %d (local recovery)", got, wantEpoch)
	}
	if st := node2.f.Status(); st.Bootstraps != 0 {
		t.Fatalf("restarted follower re-bootstrapped %d times; local state should have sufficed", st.Bootstraps)
	}
	assertIdenticalReads(t, "after follower restart",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node2.ts.URL, replReadURLs))

	// The restarted follower still tails: one more leader batch arrives.
	postBatch(t, leader.ts, "edges",
		`{"edges":[{"from":"Kill Bill","rel":"Director","from_type":"FILM","to_type":"`+fig1.FilmDirector+`","to":"Quentin Tarantino"}]}`)
	if err := node2.f.WaitCaughtUp(wantEpoch+1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReads(t, "after post-restart batch",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node2.ts.URL, replReadURLs))
}

// TestFollowerEpochContiguity is the property test: under interleaved
// writes, a flaky transport that drops every third request, and a
// follower kill/restart mid-stream, every epoch a follower instance
// publishes is exactly its predecessor+1 — never a gap, never a repeat —
// and a restarted instance resumes at most at its durable prefix, so the
// union of published epochs is a contiguous prefix of the leader's.
func TestFollowerEpochContiguity(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	fCkpt := filepath.Join(root, "f-ckpt")
	fWAL := filepath.Join(root, "f-wal")
	if err := os.MkdirAll(fCkpt, 0o755); err != nil {
		t.Fatal(err)
	}

	const totalBatches = 24
	var mu sync.Mutex
	var sequences [][]uint64 // applied epochs per follower instance
	record := func() func(uint64) {
		mu.Lock()
		defer mu.Unlock()
		sequences = append(sequences, nil)
		i := len(sequences) - 1
		return func(e uint64) {
			mu.Lock()
			defer mu.Unlock()
			sequences[i] = append(sequences[i], e)
		}
	}

	flaky := func(o *FollowerOptions) {
		n := 0
		var fmu sync.Mutex
		o.Client = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			fmu.Lock()
			n++
			drop := n%3 == 0
			fmu.Unlock()
			if drop {
				return nil, fmt.Errorf("injected disconnect")
			}
			return http.DefaultTransport.RoundTrip(r)
		})}
	}

	// The follower boots from the current snapshot, so it starts before
	// the writes: every epoch then reaches it as a shipped record.
	onApply := record()
	node := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL, flaky,
		func(o *FollowerOptions) { o.OnApply = onApply })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < totalBatches; i++ {
			body := fmt.Sprintf(`{"edges":[{"from":"Film %03d","rel":"Genres","from_type":%q,"to_type":%q,"to":"Action Film"}]}`,
				i, fig1.Film, fig1.FilmGenre)
			postBatch(t, leader.ts, "edges", body)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Kill it somewhere mid-stream.
	if err := node.f.WaitCaughtUp(totalBatches/3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	node.f.Stop()
	node.ts.Close()
	resumedAt := node.f.Applied()

	onApply2 := record()
	node2 := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL, flaky,
		func(o *FollowerOptions) { o.OnApply = onApply2 })
	wg.Wait()
	if err := node2.f.WaitCaughtUp(totalBatches, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	// The restarted instance resumed at most at its durable prefix: the
	// first epoch it applied is at most one past the killed instance's
	// last. (Its epoch read right after the restart would race its
	// replication loop, which may already have applied more.)
	if seq := sequences[1]; len(seq) == 0 || seq[0] > resumedAt+1 {
		t.Fatalf("restarted follower applied %v, ahead of the killed instance's epoch %d", seq, resumedAt)
	}
	high := uint64(0)
	for i, seq := range sequences {
		for j := 1; j < len(seq); j++ {
			if seq[j] != seq[j-1]+1 {
				t.Fatalf("instance %d published a non-contiguous epoch: %d after %d (sequence %v)", i, seq[j], seq[j-1], seq)
			}
		}
		if len(seq) > 0 {
			if first := seq[0]; first > high+1 {
				t.Fatalf("instance %d started at epoch %d, leaving a gap after %d", i, first, high)
			}
			if last := seq[len(seq)-1]; last > high {
				high = last
			}
		}
	}
	if high != totalBatches {
		t.Fatalf("followers reached epoch %d, want %d", high, totalBatches)
	}
	assertIdenticalReads(t, "after contiguity run",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node2.ts.URL, replReadURLs))
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFollowerRejectsCorruptStream: a byte flipped in flight fails the
// record checksum; the follower drops the stream, publishes nothing from
// it, re-syncs from its last good epoch, and still converges to
// byte-identical reads.
func TestFollowerRejectsCorruptStream(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	srv := leader.srv

	var pmu sync.Mutex
	corrupted := 0
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, r)
		body := rr.Body.Bytes()
		pmu.Lock()
		if corrupted == 0 && strings.Contains(r.URL.Path, "/wal") && len(body) > 8 && rr.Code == http.StatusOK {
			body[len(body)/2] ^= 0xff
			corrupted++
		}
		pmu.Unlock()
		for k, vs := range rr.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rr.Code)
		w.Write(body)
	}))
	defer proxy.Close()

	// The follower boots from the current snapshot, so it starts first:
	// the batches then reach it through the wal route, past the proxy.
	node := startFollowerNode(t, proxy.URL, "", "")
	for _, b := range replBatches[:4] {
		postBatch(t, leader.ts, b.route, b.body)
	}
	if err := node.f.WaitCaughtUp(4, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	pmu.Lock()
	hits := corrupted
	pmu.Unlock()
	if hits == 0 {
		t.Fatal("the corrupting proxy never fired; the test proved nothing")
	}
	if st := node.f.Status(); st.Resyncs == 0 {
		t.Fatalf("follower converged without re-syncing (status %+v); the corrupt stream was accepted?", st)
	}
	assertIdenticalReads(t, "after corrupt stream",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node.ts.URL, replReadURLs))
}

// TestFollowerLocalWALCorruption: damage in the follower's own WAL
// shrinks its recoverable prefix; restart must recover to the last good
// epoch (ErrCorrupt discipline, never a corrupt publish) and re-ship the
// difference from the leader, converging to byte-identical reads.
func TestFollowerLocalWALCorruption(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	fCkpt := filepath.Join(root, "f-ckpt")
	fWAL := filepath.Join(root, "f-wal")
	if err := os.MkdirAll(fCkpt, 0o755); err != nil {
		t.Fatal(err)
	}

	// The follower boots from the current snapshot, so it starts first:
	// every batch then reaches its local WAL as a shipped record.
	node := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL)
	for _, b := range replBatches {
		postBatch(t, leader.ts, b.route, b.body)
	}
	wantEpoch := uint64(len(replBatches))
	if err := node.f.WaitCaughtUp(wantEpoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	node.f.Stop()
	node.ts.Close()

	// Flip a byte in the middle of the follower's local log: the valid
	// prefix now ends somewhere before wantEpoch.
	segs, err := filepath.Glob(filepath.Join(fWAL, "fig1", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no follower segments: %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, replayErr := storage.ReplayWAL(filepath.Join(fWAL, "fig1"))
	if replayErr == nil || len(recs) >= int(wantEpoch) {
		t.Fatalf("corruption did not shrink the prefix: %d records, err %v", len(recs), replayErr)
	}

	node2 := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL)
	if got := node2.f.Applied(); got > wantEpoch {
		t.Fatalf("follower recovered past its valid prefix: epoch %d", got)
	}
	if err := node2.f.WaitCaughtUp(wantEpoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReads(t, "after local WAL corruption",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node2.ts.URL, replReadURLs))

	// And a further restart proves the re-synced local log is coherent.
	node2.f.Stop()
	node2.ts.Close()
	node3 := startFollowerNode(t, leader.ts.URL, fCkpt, fWAL)
	if got := node3.f.Applied(); got != wantEpoch {
		t.Fatalf("post-resync restart at epoch %d, want %d", got, wantEpoch)
	}
}

// TestFollowerRebootstrapPastHorizon: a leader checkpoint truncates the
// WAL. A cold follower bootstraps from the current snapshot and tails
// from there, and every read surface, walk- and entropy-keyed previews
// included, stays byte-identical to the leader's, ETags too.
func TestFollowerRebootstrapPastHorizon(t *testing.T) {
	root := t.TempDir()
	ckptDir := filepath.Join(root, "leader-ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	leader := startDurable(t, ckptDir, filepath.Join(root, "leader-wal"))
	for _, b := range replBatches[:4] {
		postBatch(t, leader.ts, b.route, b.body)
	}
	snap := leader.live.Snapshot()
	ck := storage.NewDurableCheckpointer(ckptDir, "fig1", leader.wal)
	if wrote, err := ck.Save(snap.Frozen, snap.Epoch); err != nil || !wrote {
		t.Fatalf("leader checkpoint: wrote=%v err=%v", wrote, err)
	}
	if _, ok := leader.wal.FirstEpoch(); ok {
		t.Fatal("checkpoint did not truncate the leader WAL; the horizon test is vacuous")
	}

	node := startFollowerNode(t, leader.ts.URL, "", "")
	if got := node.f.Applied(); got != 4 {
		t.Fatalf("cold follower bootstrapped at epoch %d, want 4 (current snapshot)", got)
	}
	for _, b := range replBatches[4:] {
		postBatch(t, leader.ts, b.route, b.body)
	}
	wantEpoch := uint64(len(replBatches))
	if err := node.f.WaitCaughtUp(wantEpoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	assertIdenticalReads(t, "after horizon bootstrap",
		readSurfaces(t, leader.ts.URL, replReadURLs), readSurfaces(t, node.ts.URL, replReadURLs))
	if st := node.f.Status(); st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1", st.Bootstraps)
	}
}

// TestFollowerDivergenceStops: a leader that answers 409 — here a fresh
// leader behind the address a follower tails, its durable epoch behind
// the follower's applied one — has forgotten history the follower holds.
// Re-requesting cannot reconcile that, so the loop stops without a
// resync, the replica keeps serving its last good epoch byte for byte,
// and the status doc carries the leader's reason as plain text.
func TestFollowerDivergenceStops(t *testing.T) {
	root := t.TempDir()
	a := startDurable(t, "", filepath.Join(root, "a-wal"))
	b := startDurable(t, "", filepath.Join(root, "b-wal"))
	var leader atomic.Pointer[durableSession]
	leader.Store(a)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		leader.Load().srv.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	node := startFollowerNode(t, front.URL, "", "")
	for _, batch := range replBatches[:3] {
		postBatch(t, a.ts, batch.route, batch.body)
	}
	if err := node.f.WaitCaughtUp(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	want := readSurfaces(t, a.ts.URL, replReadURLs)

	leader.Store(b)
	select {
	case <-node.f.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("follower still tailing a leader at epoch 0 from epoch 3: %+v", node.f.Status())
	}
	if st := node.f.Status(); st.Resyncs != 0 || st.AppliedEpoch != 3 {
		t.Fatalf("follower status %+v, want it stopped at epoch 3 with no resync", st)
	}
	assertIdenticalReads(t, "after divergence", want, readSurfaces(t, node.ts.URL, replReadURLs))

	var doc replStatusDoc
	if st := getJSON(t, node.ts.URL+"/v1/replication/fig1/status", &doc); st != http.StatusOK {
		t.Fatalf("follower status: %d", st)
	}
	const reason = "follower epoch 3 is ahead of the leader's durable epoch 0"
	if !strings.Contains(doc.Error, reason) || strings.Contains(doc.Error, "{") {
		t.Fatalf("status error %q, want the leader's reason %q as plain text", doc.Error, reason)
	}
}

// TestReplicationStatusDoc pins the status endpoint's shape per role.
func TestReplicationStatusDoc(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	for _, b := range replBatches[:2] {
		postBatch(t, leader.ts, b.route, b.body)
	}
	var ls replStatusDoc
	if st := getJSON(t, leader.ts.URL+"/v1/replication/fig1/status", &ls); st != http.StatusOK {
		t.Fatalf("leader status: %d", st)
	}
	if ls.Role != "leader" || ls.Epoch != 2 || ls.DurableEpoch != 2 || ls.Horizon != 0 {
		t.Fatalf("leader status doc %+v", ls)
	}

	node := startFollowerNode(t, leader.ts.URL, "", "")
	if err := node.f.WaitCaughtUp(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	var fs replStatusDoc
	if st := getJSON(t, node.ts.URL+"/v1/replication/fig1/status", &fs); st != http.StatusOK {
		t.Fatalf("follower status: %d", st)
	}
	if fs.Role != "follower" || fs.Leader != leader.ts.URL {
		t.Fatalf("follower status doc %+v", fs)
	}
	if fs.AppliedEpoch == nil || *fs.AppliedEpoch != 2 || fs.Lag == nil || *fs.Lag != 0 {
		t.Fatalf("follower progress %+v", fs)
	}
}

// TestReplicationRouteDiscipline is the shared table locking the
// 404/405/503 ordering across leader-static, leader-mutable and follower
// modes: resource existence first (404 whatever the method), then the
// route's true method set (405 with an accurate Allow — empty when the
// route supports no method at all), then writability (503 naming the
// leader on a replica).
func TestReplicationRouteDiscipline(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal")) // mutable durable leader
	_, staticTS := newTestServer(t)                                  // static read-only graph
	follower := startFollowerNode(t, leader.ts.URL, "", "")

	type want struct {
		status int
		allow  *string // nil = not asserted; non-nil must match exactly
		leader bool    // X-Previewtables-Leader must name the leader
		errHas string  // non-empty: the error body must contain it and print no nil error
	}
	str := func(s string) *string { return &s }
	cases := []struct {
		name   string
		ts     *httptest.Server
		method string
		path   string
		want   want
	}{
		// Resource existence beats method on every server.
		{"static unknown graph", staticTS, "DELETE", "/v1/graphs/nope/edges", want{status: 404}},
		{"mutable unknown graph", leader.ts, "DELETE", "/v1/graphs/nope/edges", want{status: 404}},
		{"follower unknown graph", follower.ts, "POST", "/v1/graphs/nope/edges", want{status: 404}},
		{"unknown action", leader.ts, "POST", "/v1/graphs/fig1/explode", want{status: 404}},
		{"unknown replication action", leader.ts, "GET", "/v1/replication/fig1/explode", want{status: 404}},
		{"replication unknown graph", leader.ts, "GET", "/v1/replication/nope/status", want{status: 404}},
		{"replication of static graph", staticTS, "GET", "/v1/replication/fig1/status", want{status: 404}},
		// Read routes allow GET, HEAD everywhere.
		{"static read wrong method", staticTS, "POST", "/v1/graphs/fig1/stats", want{status: 405, allow: str("GET, HEAD")}},
		{"follower read wrong method", follower.ts, "POST", "/v1/graphs/fig1/stats", want{status: 405, allow: str("GET, HEAD")}},
		{"replication wrong method", leader.ts, "POST", "/v1/replication/fig1/status", want{status: 405, allow: str("GET, HEAD")}},
		// HEAD is a first-class read method: 200 on read routes on every
		// server role, and the same 404/405 ordering as any other method
		// elsewhere (the 304 arm of HEAD lives in TestHeadDiscipline,
		// which compares HEAD's headers against GET's byte for byte).
		{"HEAD static read", staticTS, "HEAD", "/v1/graphs/fig1/stats", want{status: 200}},
		{"HEAD mutable read", leader.ts, "HEAD", "/v1/graphs/fig1/preview?k=2&n=3", want{status: 200}},
		{"HEAD follower read", follower.ts, "HEAD", "/v1/graphs", want{status: 200}},
		{"HEAD unknown graph", staticTS, "HEAD", "/v1/graphs/nope/stats", want{status: 404}},
		{"HEAD unknown action", leader.ts, "HEAD", "/v1/graphs/fig1/explode", want{status: 404}},
		{"HEAD static write route", staticTS, "HEAD", "/v1/graphs/fig1/edges", want{status: 405, allow: str("")}},
		{"HEAD mutable write route", leader.ts, "HEAD", "/v1/graphs/fig1/triples", want{status: 405, allow: str("POST")}},
		// A read-only graph's write routes support no method at all.
		{"static write POST", staticTS, "POST", "/v1/graphs/fig1/edges", want{status: 405, allow: str("")}},
		{"static write GET", staticTS, "GET", "/v1/graphs/fig1/edges", want{status: 405, allow: str("")}},
		{"static write DELETE", staticTS, "DELETE", "/v1/graphs/fig1/triples", want{status: 405, allow: str("")}},
		// A mutable graph's write routes are POST-only.
		{"mutable write GET", leader.ts, "GET", "/v1/graphs/fig1/edges", want{status: 405, allow: str("POST")}},
		{"mutable write PUT", leader.ts, "PUT", "/v1/graphs/fig1/triples", want{status: 405, allow: str("POST")}},
		// The promote action exists only on follower nodes: a leader (or a
		// static server) has nothing to promote, so the resource itself is
		// absent — 404 before any method check; on a follower it is
		// POST-only like every other state-changing action.
		{"promote on leader", leader.ts, "POST", "/v1/replication/promote", want{status: 404}},
		{"promote on static server", staticTS, "POST", "/v1/replication/promote", want{status: 404}},
		{"promote wrong method", follower.ts, "GET", "/v1/replication/promote", want{status: 405, allow: str("POST")}},
		// A follower's write routes exist and are POST-only, but POST is
		// the leader's to accept.
		{"follower write GET", follower.ts, "GET", "/v1/graphs/fig1/edges", want{status: 405, allow: str("POST")}},
		{"follower write POST", follower.ts, "POST", "/v1/graphs/fig1/edges", want{status: 503, leader: true}},
		{"follower triples POST", follower.ts, "POST", "/v1/graphs/fig1/triples", want{status: 503, leader: true}},
		// The fleet admin routes (fence exchange, adopt, per-graph promote,
		// drop) exist only on nodes wired for them — everywhere else the
		// resource is absent, so 404 beats method, same as node promote.
		{"fence on non-fencing node", leader.ts, "POST", "/v1/replication/fence", want{status: 404}},
		{"fence wrong method non-fencing", leader.ts, "GET", "/v1/replication/fence", want{status: 404}},
		{"adopt without adopter", leader.ts, "POST", "/v1/replication/fig1/adopt", want{status: 404}},
		{"graph promote without adopter", leader.ts, "POST", "/v1/replication/fig1/promote", want{status: 404}},
		{"graph promote unknown graph", leader.ts, "POST", "/v1/replication/nope/promote", want{status: 404}},
		{"drop without adopter", leader.ts, "DELETE", "/v1/graphs/fig1", want{status: 404}},
	}
	// On a real migration node (what previewd -mutable -wal-dir
	// -checkpoint-dir builds), the fleet admin routes exist and follow
	// the ordinary method discipline with accurate Allow sets.
	fleetNode := startNode(t, NodeConfig{
		Graphs:          []GraphSource{fig1Source("held")},
		Mutable:         true,
		FollowerOptions: nodeStorage(filepath.Join(root, "fleet")),
	})
	fleetTS := httptest.NewServer(fleetNode.Server())
	t.Cleanup(fleetTS.Close)
	// A durable follower can lead; promoting it again is a no-op that
	// still answers 200 (a node that forgot its followers would 404).
	fCkpt := filepath.Join(root, "durable-follower-ckpt")
	if err := os.MkdirAll(fCkpt, 0o755); err != nil {
		t.Fatal(err)
	}
	durableFollower := startFollowerNode(t, leader.ts.URL, fCkpt, filepath.Join(root, "durable-follower-wal"))
	cases = append(cases, []struct {
		name   string
		ts     *httptest.Server
		method string
		path   string
		want   want
	}{
		{"fence wrong method", fleetTS, "GET", "/v1/replication/fence", want{status: 405, allow: str("POST")}},
		{"adopt wrong method", fleetTS, "GET", "/v1/replication/held/adopt", want{status: 405, allow: str("POST")}},
		{"graph promote wrong method", fleetTS, "GET", "/v1/replication/held/promote", want{status: 405, allow: str("POST")}},
		{"drop unknown graph", fleetTS, "DELETE", "/v1/graphs/nope", want{status: 404}},
		{"drop wrong method", fleetTS, "PUT", "/v1/graphs/held", want{status: 405, allow: str("DELETE")}},
		{"promote durable follower", durableFollower.ts, "POST", "/v1/replication/promote", want{status: 200}},
		{"promote durable follower again", durableFollower.ts, "POST", "/v1/replication/promote", want{status: 200}},
		// An adopt body must name its source; one that decodes but names
		// none is refused for that, and malformed JSON for its decode error.
		{"adopt without source", fleetTS, "POST", "/v1/replication/newcomer/adopt", want{status: 400, errHas: `"source"`}},
		{"adopt empty source", fleetTS, "POST", "/v1/replication/newcomer/adopt", want{status: 400, errHas: `"source"`}},
		{"adopt malformed body", fleetTS, "POST", "/v1/replication/newcomer/adopt", want{status: 400, errHas: "unexpected EOF"}},
		// A graph's WAL is <wal-dir>/<name>, so a name that is not one path
		// element is refused before anything is adopted, source or not.
		{"adopt dot-dot", fleetTS, "POST", "/v1/replication/../adopt", want{status: 400, errHas: `".."`}},
		{"adopt dot", fleetTS, "POST", "/v1/replication/./adopt", want{status: 400, errHas: `"."`}},
	}...)
	// Every request sends "{}" unless its case names another body here.
	bodies := map[string]string{
		"adopt empty source":   `{"source":""}`,
		"adopt malformed body": `{"source":`,
		"adopt dot-dot":        `{"source":"` + leader.ts.URL + `"}`,
		"adopt dot":            `{"source":"` + leader.ts.URL + `"}`,
	}
	for _, tc := range cases {
		body, ok := bodies[tc.name]
		if !ok {
			body = "{}"
		}
		req, err := http.NewRequest(tc.method, tc.ts.URL+tc.path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want.status {
			t.Errorf("%s: %s %s = %d, want %d", tc.name, tc.method, tc.path, resp.StatusCode, tc.want.status)
		}
		if tc.want.errHas != "" {
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || !strings.Contains(doc.Error, tc.want.errHas) || strings.Contains(doc.Error, "nil") {
				t.Errorf("%s: error body %s, want an error containing %q and no nil", tc.name, raw, tc.want.errHas)
			}
		}
		if tc.want.allow != nil {
			allow, present := resp.Header["Allow"]
			if !present || len(allow) != 1 || allow[0] != *tc.want.allow {
				t.Errorf("%s: Allow = %v (present %v), want %q", tc.name, allow, present, *tc.want.allow)
			}
		}
		if tc.want.leader {
			if got := resp.Header.Get(wire.LeaderHeader); got != leader.ts.URL {
				t.Errorf("%s: %s = %q, want %q", tc.name, wire.LeaderHeader, got, leader.ts.URL)
			}
		}
	}
}

// TestReplicationAdoptCannotEscapeWALRoot: a graph's WAL is
// <wal-dir>/<name>, so a graph named ".." or "." would log into the WAL
// root's parent or the WAL root itself, and dropping it would delete
// that directory. A migration node asked to adopt such a name from a
// source that serves it (any client's own server can: here one fronting
// a real leader) refuses with 400, so the drop that follows finds no
// graph, and the files beside the WAL root and in it survive.
func TestReplicationAdoptCannotEscapeWALRoot(t *testing.T) {
	root := t.TempDir()
	leader := startDurable(t, "", filepath.Join(root, "leader-wal"))
	dirs := nodeStorage(filepath.Join(root, "node"))
	node := startNode(t, NodeConfig{Graphs: []GraphSource{fig1Source("held")}, Mutable: true, FollowerOptions: dirs})
	ts := httptest.NewServer(node.Server())
	t.Cleanup(ts.Close)
	beside := filepath.Join(root, "node", "beside")
	if err := os.WriteFile(beside, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"..", "."} {
		name := name // the source's handler outlives the iteration
		// The source serves the leader's fig1 under the hostile name.
		source := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.URL.Path = strings.Replace(r.URL.Path, "/v1/replication/"+name+"/", "/v1/replication/fig1/", 1)
			leader.srv.ServeHTTP(w, r)
		}))
		t.Cleanup(source.Close)
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/replication/"+name+"/adopt", `{"source":"`+source.URL+`"}`); status != http.StatusBadRequest {
			t.Errorf("adopt %q: status %d body %s, want 400", name, status, body)
		}
		if status, body := do(t, http.MethodDelete, ts.URL+"/v1/graphs/"+name, ""); status != http.StatusNotFound {
			t.Errorf("drop %q: status %d body %s, want 404", name, status, body)
		}
		for _, p := range []string{beside, filepath.Join(dirs.WALRoot, "held")} {
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("after adopting and dropping %q: %v", name, err)
			}
		}
	}
}

// BenchmarkFollowerCatchup measures a cold follower of a leader 100
// batches in: its bootstrap from the leader's current snapshot, to the
// moment it has published the leader's epoch.
func BenchmarkFollowerCatchup(b *testing.B) {
	root := b.TempDir()
	leader := startDurable(b, "", filepath.Join(root, "leader-wal"))
	const batches = 100
	for i := 0; i < batches; i++ {
		body := fmt.Sprintf(`{"edges":[{"from":"Film %03d","rel":"Genres","from_type":%q,"to_type":%q,"to":"Action Film"}]}`,
			i, fig1.Film, fig1.FilmGenre)
		postBatch(b, leader.ts, "edges", body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry()
		f, err := StartFollower(reg, "fig1", FollowerOptions{
			Leader: leader.ts.URL,
			Walk:   score.DefaultWalkOptions(),
			Wait:   150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.WaitCaughtUp(batches, 60*time.Second); err != nil {
			b.Fatal(err)
		}
		f.Stop()
	}
}
