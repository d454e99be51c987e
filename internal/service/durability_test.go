package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// durableSession is one previewd "process": a registry serving the fig1
// graph durably. crash() abandons it SIGKILL-style — no checkpoint, no
// WAL close, no flush — leaving only what Append already put on disk.
type durableSession struct {
	live *dynamic.Live
	wal  *storage.WAL
	srv  *Server // the handler behind ts, for wrapping in test proxies
	ts   *httptest.Server
}

// startDurable boots a session from whatever ckptDir+walDir hold,
// exactly like previewd -mutable -wal-dir does at startup.
func startDurable(t testing.TB, ckptDir, walDir string) *durableSession {
	t.Helper()
	rec, err := RecoverLive(fig1.Graph(), "fig1", ckptDir, walDir, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	live, wal := rec.Live, rec.WAL
	t.Cleanup(func() { wal.Close() })
	reg := NewRegistry()
	if err := reg.AddLive("fig1", live, WithDurability(wal)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &durableSession{live: live, wal: wal, srv: srv, ts: ts}
}

func (s *durableSession) crash() {
	// SIGKILL semantics: the HTTP listener dies with the process; the
	// in-memory graph, pending checkpoints and the open WAL handle are
	// simply abandoned. (Cleanup closes the leaked fd at test end.)
	s.ts.Close()
}

// crashBatches drives the write path through both routes; each entry is
// one epoch. No batch repeats an edge, so the multigraph dedup
// divergence documented on dynamic.Graph.Freeze cannot blur the
// byte-identity assertions.
var crashBatches = []struct{ route, body string }{
	{"edges", `{"edges":[
		{"from":"Danny Elfman","rel":"Music","from_type":"FILM COMPOSER","to_type":"` + fig1.Film + `","to":"Men in Black"},
		{"from":"Danny Elfman","rel":"Music","to":"Men in Black II"}]}`},
	{"triples", "type \"STUDIO\"\nentity \"Columbia Pictures\" \"STUDIO\"\n" +
		"edge \"Columbia Pictures\" \"Produced By\" \"STUDIO\" \"" + fig1.Film + "\" \"Men in Black\"\n" +
		"edge \"Columbia Pictures\" \"Produced By\" \"STUDIO\" \"" + fig1.Film + "\" \"Hancock\"\n"},
	{"edges", `{"edges":[{"from":"Alex Proyas","rel":"Director","to":"Hancock"}]}`},
	{"edges", `{"edges":[{"from":"Hancock","rel":"Genres","to":"Action Film"}]}`},
	{"triples", "edge \"Columbia Pictures\" \"Produced By\" \"STUDIO\" \"" + fig1.Film + "\" \"I, Robot\"\n"},
	{"edges", `{"edges":[{"from":"Peter Berg","rel":"Director","to":"I, Robot"}]}`},
}

func postBatch(t testing.TB, ts *httptest.Server, route, body string) {
	t.Helper()
	status, raw := post(t, ts.URL+"/v1/graphs/fig1/"+route, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d body %s", route, status, raw)
	}
}

// snapshotResponses fetches every read surface whose bytes must survive
// a crash: stats, JSON previews (both measure pairs for the key axis,
// with sampled tuples), and the markdown rendering. Read bodies carry
// no timing field (that moved to the X-Previewtables-Elapsed header),
// so the comparison is raw bytes with nothing masked.
func snapshotResponses(t testing.TB, ts *httptest.Server) map[string]string {
	t.Helper()
	urls := []string{
		"/v1/graphs/fig1/stats",
		"/v1/graphs/fig1/preview?k=2&n=3&tuples=3&key=coverage&nonkey=coverage",
		"/v1/graphs/fig1/preview?k=3&n=6&tuples=2&key=coverage&nonkey=entropy",
		"/v1/graphs/fig1/preview?k=2&n=4&mode=tight&d=2&key=coverage&nonkey=coverage",
		"/v1/graphs/fig1/render?k=2&n=3&tuples=3&key=coverage&nonkey=coverage&format=markdown",
	}
	out := make(map[string]string, len(urls))
	for _, u := range urls {
		resp, err := http.Get(ts.URL + u)
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
		out[u] = string(raw)
	}
	return out
}

func assertSameResponses(t *testing.T, before, after map[string]string) {
	t.Helper()
	for u, want := range before {
		if got := after[u]; got != want {
			t.Errorf("GET %s diverged after recovery:\npre-crash:  %s\npost-crash: %s", u, want, got)
		}
	}
}

// TestKillAndRestartWALOnly is the end-to-end crash test with no
// checkpoint at all: the whole state is base graph + WAL. Recovery
// replays the identical batch sequence through the identical code path,
// so every read response — including entropy scores and sampled tuples —
// is byte-identical to the acknowledged pre-crash responses.
func TestKillAndRestartWALOnly(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal", "fig1")

	s1 := startDurable(t, "", walDir)
	for _, b := range crashBatches {
		postBatch(t, s1.ts, b.route, b.body)
	}
	wantEpoch := uint64(len(crashBatches))
	if got := s1.live.Snapshot().Epoch; got != wantEpoch {
		t.Fatalf("pre-crash epoch = %d, want %d", got, wantEpoch)
	}
	before := snapshotResponses(t, s1.ts)
	s1.crash()

	s2 := startDurable(t, "", walDir)
	if got := s2.live.Snapshot().Epoch; got != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", got, wantEpoch)
	}
	assertSameResponses(t, before, snapshotResponses(t, s2.ts))

	// The recovered graph is live, not a read-only reconstruction: the
	// next batch continues the epoch sequence durably.
	postBatch(t, s2.ts, "edges", `{"edges":[{"from":"Men in Black","rel":"Genres","to":"Action Film"}]}`)
	if got := s2.live.Snapshot().Epoch; got != wantEpoch+1 {
		t.Fatalf("post-recovery epoch = %d, want %d", got, wantEpoch+1)
	}
}

// TestKillAndRestartCheckpointPlusWAL crashes after a mid-stream
// checkpoint: recovery loads the newest snapshot, replays only the WAL
// tail past it, resumes at the exact pre-crash epoch, and serves
// byte-identical reads, entropy-keyed previews included. It also pins the
// log-bounding invariant: the checkpoint truncated every WAL segment it
// covers.
func TestKillAndRestartCheckpointPlusWAL(t *testing.T) {
	root := t.TempDir()
	ckptDir := filepath.Join(root, "ckpt")
	walDir := filepath.Join(root, "wal", "fig1")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}

	s1 := startDurable(t, ckptDir, walDir)
	mid := len(crashBatches) / 2
	for _, b := range crashBatches[:mid] {
		postBatch(t, s1.ts, b.route, b.body)
	}
	// One checkpoint tick, as previewd's loop would run it. Tiny segments
	// so "segments older than the checkpoint" is plural and observable.
	snap := s1.live.Snapshot()
	ck := storage.NewDurableCheckpointer(ckptDir, "fig1", s1.wal)
	if wrote, err := ck.Save(snap.Frozen, snap.Epoch); err != nil || !wrote {
		t.Fatalf("checkpoint: wrote=%v err=%v", wrote, err)
	}
	recs, err := storage.ReplayWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Epoch <= snap.Epoch {
			t.Fatalf("WAL still holds epoch %d, already covered by the epoch-%d checkpoint", r.Epoch, snap.Epoch)
		}
	}
	for _, b := range crashBatches[mid:] {
		postBatch(t, s1.ts, b.route, b.body)
	}
	wantEpoch := uint64(len(crashBatches))
	before := snapshotResponses(t, s1.ts)
	s1.crash()

	s2 := startDurable(t, ckptDir, walDir)
	if got := s2.live.Snapshot().Epoch; got != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d (checkpoint %d + WAL tail)", got, wantEpoch, snap.Epoch)
	}
	assertSameResponses(t, before, snapshotResponses(t, s2.ts))

	postBatch(t, s2.ts, "edges", `{"edges":[{"from":"Men in Black","rel":"Genres","to":"Action Film"}]}`)
	if got := s2.live.Snapshot().Epoch; got != wantEpoch+1 {
		t.Fatalf("post-recovery epoch = %d, want %d", got, wantEpoch+1)
	}
}

// TestRecoverLiveDiscardsTornTail: a crash mid-append leaves half a
// record; the batch was never acknowledged, so recovery resumes at the
// last intact epoch and new writes land cleanly after the trim.
func TestRecoverLiveDiscardsTornTail(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	s1 := startDurable(t, "", walDir)
	for _, b := range crashBatches[:3] {
		postBatch(t, s1.ts, b.route, b.body)
	}
	s1.crash()
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 'm', 'i', 'd', '-', 'a', 'p', 'p', 'e', 'n', 'd'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := startDurable(t, "", walDir)
	if got := s2.live.Snapshot().Epoch; got != 3 {
		t.Fatalf("recovered epoch = %d, want 3 (torn tail discarded)", got)
	}
	postBatch(t, s2.ts, "edges", crashBatches[3].body)
	if got := s2.live.Snapshot().Epoch; got != 4 {
		t.Fatalf("post-trim epoch = %d, want 4", got)
	}
}

// TestWriteLogFailureAnswers500 pins the failed-durability contract on
// the HTTP surface: the batch answers 500, no epoch is published, and
// the graph stays wedged (also 500) until restart.
func TestWriteLogFailureAnswers500(t *testing.T) {
	dg, err := dynamic.FromEntityGraph(fig1.Graph())
	if err != nil {
		t.Fatal(err)
	}
	live, err := dynamic.NewLive(dg, score.DefaultWalkOptions())
	if err != nil {
		t.Fatal(err)
	}
	live.SetDurability(func(uint64, byte, []byte) error {
		return errors.New("injected log-write failure")
	})
	reg := NewRegistry()
	if err := reg.AddLive("fig1", live); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	body := `{"edges":[{"from":"Alex Proyas","rel":"Director","to":"Hancock"}]}`
	status, raw := post(t, ts.URL+"/v1/graphs/fig1/edges", body)
	if status != http.StatusInternalServerError || !strings.Contains(string(raw), "injected log-write failure") {
		t.Fatalf("log failure: status %d body %s, want 500 naming the cause", status, raw)
	}
	var stats struct {
		Epoch *uint64 `json:"epoch"`
	}
	if st := getJSON(t, ts.URL+"/v1/graphs/fig1/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	if stats.Epoch == nil || *stats.Epoch != 0 {
		t.Fatalf("epoch published despite log failure: %v", stats.Epoch)
	}
	if live.Refreshes() != 0 {
		t.Fatalf("refreshes = %d, want 0", live.Refreshes())
	}

	status, raw = post(t, ts.URL+"/v1/graphs/fig1/edges", body)
	if status != http.StatusInternalServerError || !strings.Contains(string(raw), "wedged") {
		t.Fatalf("wedged write: status %d body %s, want 500 mentioning wedged", status, raw)
	}
}

// TestDurableWritesReachDiskPerBatch: WithDurability means an
// acknowledged batch is already replayable — before any checkpoint and
// before any shutdown hook.
func TestDurableWritesReachDiskPerBatch(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	s := startDurable(t, "", walDir)
	for i, b := range crashBatches[:2] {
		postBatch(t, s.ts, b.route, b.body)
		recs, err := storage.ReplayWAL(walDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != i+1 || recs[i].Epoch != uint64(i+1) {
			t.Fatalf("after batch %d: %d records on disk, last epoch %v", i+1, len(recs), recs)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	// A realistic tail: one checkpointless WAL holding 100 single-edge
	// batches against the Fig. 1 base — recovery replays all of them and
	// rebuilds scores once.
	walDir := filepath.Join(b.TempDir(), "wal")
	wal, _, err := storage.OpenWAL(walDir, storage.WALOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		payload := fmt.Sprintf(`{"edges":[{"from":"Film %d","rel":"Genres","from_type":%q,"to_type":"FILM GENRE","to":"Action Film"}]}`, i, fig1.Film)
		if err := wal.Append(uint64(i+1), batchKindEdges, []byte(payload)); err != nil {
			b.Fatal(err)
		}
	}
	wal.Close()
	base := fig1.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := RecoverLive(base, "fig1", "", walDir, score.DefaultWalkOptions())
		if err != nil {
			b.Fatal(err)
		}
		if rec.Live.Snapshot().Epoch != 100 {
			b.Fatalf("recovered epoch %d", rec.Live.Snapshot().Epoch)
		}
		rec.WAL.Close()
	}
}

// TestRecoverLiveRebasesWALBehindCheckpoint: corruption can shorten the
// WAL's valid prefix to below the checkpoint epoch. Everything lost was
// already in the snapshot, so recovery must succeed AND the first
// post-recovery write must append cleanly — not trip the WAL's
// contiguity check against the stale tail and wedge the graph.
func TestRecoverLiveRebasesWALBehindCheckpoint(t *testing.T) {
	root := t.TempDir()
	ckptDir := filepath.Join(root, "ckpt")
	walDir := filepath.Join(root, "wal")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}

	s1 := startDurable(t, ckptDir, walDir)
	for _, b := range crashBatches[:3] {
		postBatch(t, s1.ts, b.route, b.body)
	}
	// Checkpoint at epoch 3 WITHOUT WAL truncation (nil wal), so the log
	// still holds epochs 1..3 — then corrupt it in the middle, shrinking
	// the valid prefix to epoch 1 < checkpoint epoch 3.
	snap := s1.live.Snapshot()
	if _, err := storage.NewDurableCheckpointer(ckptDir, "fig1", nil).Save(snap.Frozen, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	s1.crash()
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment: %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := storage.ReplayWAL(walDir); err == nil || len(recs) >= 3 {
		t.Fatalf("corruption did not shrink the prefix: %d records, err %v", len(recs), err)
	}

	s2 := startDurable(t, ckptDir, walDir)
	if got := s2.live.Snapshot().Epoch; got != 3 {
		t.Fatalf("recovered epoch = %d, want 3 (checkpoint)", got)
	}
	// The write must succeed and be durable at epoch 4.
	postBatch(t, s2.ts, "edges", crashBatches[3].body)
	if got := s2.live.Snapshot().Epoch; got != 4 {
		t.Fatalf("post-recovery epoch = %d, want 4", got)
	}
	s2.crash()
	s3 := startDurable(t, ckptDir, walDir)
	if got := s3.live.Snapshot().Epoch; got != 4 {
		t.Fatalf("second recovery epoch = %d, want 4 (re-based WAL replays)", got)
	}
}
