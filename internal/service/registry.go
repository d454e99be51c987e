// Package service is the HTTP serving layer: a named registry of loaded
// entity graphs with per-graph caches of the expensive precomputations,
// a JSON API over preview discovery and rendering (see Server), and a
// write path for live graphs (see write.go).
//
// The caching design follows the paper's own split (Sec. 5: "Both the
// schema graph and the scoring measures ... are computed before optimal
// preview discovery"): the dominant cost of answering a preview request
// is obtaining the score.Set — one pass over every edge of the entity
// graph plus power iteration for the random-walk measure — and, for
// tight and diverse previews, the Apriori search over it. The score set
// is cached in the epoch view: one immutable bundle of (entity graph,
// score set, response cache). A static graph keeps one view forever and
// computes its score.Set at most once however many requests race for it
// (a sync.Once); a mutable graph gets a fresh view per mutation epoch,
// its score set produced by the incremental refresh (package dynamic)
// rather than score.Compute. Search results are cached one level up, on
// the Graph: one core.Maintained per (key measure, non-key measure) pair,
// which a static graph builds once at epoch 0 and a mutable graph carries
// forward across epochs, however many it skips: each view's snapshot says
// what moved since (dynamic.Snapshot.DirtySince). Its certificates let
// later requests for a searched constraint skip the search, and it
// collapses concurrent searches for one constraint into one (see
// view.search).
package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
)

// Registry holds the named graphs a server exposes: immutable graphs
// registered with Add, live (mutable) graphs registered with AddLive.
// All methods are safe for concurrent use.
type Registry struct {
	// Parallelism is the worker count handed to the scoring
	// precomputation (score.Compute) and to Discoverer construction and
	// search (core.Options.Parallelism) of every graph registered after it
	// is set. Values <= 1 mean sequential; results are identical either
	// way (the parallel paths are bit-identical by construction). Set it
	// before registering graphs: each registration and view publication
	// captures the current value, so later writes affect later
	// registrations only.
	//
	// Live graphs' incremental refreshes are driven by the WalkOptions
	// their dynamic.Live was built with; NewNode sets both from
	// Walk.Parallelism.
	Parallelism int

	mu        sync.RWMutex
	graphs    map[string]*Graph
	leader    string      // non-empty = follower registry; writes answer 503 naming it
	following []*Follower // started by StartFollower; POST /v1/replication/promote promotes them

	// Fencing state (see EnableFencing). fence is read lock-free on the
	// write hot path; fenceMu serializes installs so the persist and the
	// in-memory store cannot interleave across concurrent installers.
	fenceMu  sync.Mutex
	fence    atomic.Uint64
	fenceOn  atomic.Bool
	fenceDir string

	// scoreComputes counts score.Compute runs across all static graphs.
	// Tests and benchmarks assert on it to prove the cache-hit path never
	// re-runs the precomputation. (Live graphs never run score.Compute at
	// all — their sets come from the incremental refresh; see
	// dynamic.Live.Refreshes for the equivalent counter.)
	scoreComputes atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*Graph)}
}

// Add registers an immutable graph under name. The name must be one path
// element (see checkGraphName) and must not already be registered.
func (r *Registry) Add(name string, g *graph.EntityGraph) error {
	if g == nil {
		return fmt.Errorf("service: nil graph %q", name)
	}
	gr := &Graph{name: name, reg: r}
	workers := r.Parallelism // captured: compute may run on a request goroutine
	v := &view{
		stats: g.Stats(),
		g:     g,
		gr:    gr,
		par:   workers,
		compute: func() *score.Set {
			r.scoreComputes.Add(1)
			opts := score.DefaultWalkOptions()
			opts.Parallelism = workers
			return score.Compute(g, opts)
		},
	}
	gr.cur.Store(v)
	return r.register(name, gr)
}

// A LiveOption configures one live graph registration.
type LiveOption func(*liveConfig)

type liveConfig struct {
	wal         *storage.WAL
	origin      *graph.EntityGraph
	originEpoch uint64
}

// WithDurability makes the live graph durable: every batch the write
// endpoints apply is appended to w — and synced — before its epoch is
// published, so an acknowledged write survives a crash. Recovery is
// RecoverLive's job; this option only installs the logging hook. A
// durable graph is also replicable: its WAL is what the replication
// endpoints ship to followers.
func WithDurability(w *storage.WAL) LiveOption {
	return func(c *liveConfig) { c.wal = w }
}

// WithOrigin records the exact state this process built its live graph
// from — the loaded base at epoch 0, or the recovered checkpoint at its
// epoch (Recovery.Origin). The replication bootstrap endpoint serves it
// while the WAL still reaches back that far, which is what lets a fresh
// follower reconstruct the leader's state through the identical code
// path and serve byte-identical reads; without it (or once truncation
// has moved past it) bootstrap falls back to the current frozen
// snapshot, whose replay is count-exact but entropy-equal only to the
// last ulp (the same asymmetry as the leader's own checkpoint recovery).
func WithOrigin(g *graph.EntityGraph, epoch uint64) LiveOption {
	return func(c *liveConfig) { c.origin, c.originEpoch = g, epoch }
}

// AddLive registers a mutable graph under name: preview requests read
// epoch-versioned snapshots, and the write endpoints mutate it through
// the live facade. Naming rules match Add.
func (r *Registry) AddLive(name string, live *dynamic.Live, opts ...LiveOption) error {
	if live == nil {
		return fmt.Errorf("service: nil live graph %q", name)
	}
	var cfg liveConfig
	for _, o := range opts {
		o(&cfg)
	}
	gr := &Graph{name: name, reg: r}
	gr.install(live, cfg.wal, cfg.origin, cfg.originEpoch)
	return r.register(name, gr)
}

// Leader returns the leader address of a follower registry, or "".
func (r *Registry) Leader() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.leader
}

// addFollower marks the whole registry as a replica of f's leader —
// every write endpoint answers 503 naming it, because the only writer a
// replica may accept from is the replication stream — and records f
// among the followers a node-level promote turns into leaders.
func (r *Registry) addFollower(f *Follower) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leader = f.opts.Leader
	r.following = append(r.following, f)
}

// clearLeader ends replica mode after a promotion: writes are accepted
// here again.
func (r *Registry) clearLeader() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leader = ""
}

// followers returns the followers StartFollower registered here. A
// registry with any is a follower node; it keeps them after promotion,
// so a repeated promote still finds what it promoted.
func (r *Registry) followers() []*Follower {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Follower(nil), r.following...)
}

// checkGraphName rejects a name that is not one path element. A graph's
// name is a segment of its routes and the directory of its WAL
// (<wal-dir>/<name>), so "." or ".." would put that WAL at the WAL root
// or its parent, and dropping the graph would delete either.
func checkGraphName(name string) error {
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return fmt.Errorf("graph name %q is not one path element (non-empty, no '/', not . or ..)", name)
	}
	return nil
}

func (r *Registry) register(name string, gr *Graph) error {
	if err := checkGraphName(name); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return fmt.Errorf("service: graph %q already registered", name)
	}
	r.graphs[name] = gr
	return nil
}

// EnableFencing arms the write-path fence check (see Server's
// requireWritable) and loads any fence previously persisted under dir —
// a node that was deposed stays deposed across restarts. dir is the
// node's WAL root; a Node enables fencing whenever it has one.
func (r *Registry) EnableFencing(dir string) error {
	if dir == "" {
		return errors.New("service: fencing needs a directory to persist the fence in")
	}
	r.fenceMu.Lock()
	defer r.fenceMu.Unlock()
	f, ok, err := storage.LoadFence(dir)
	if err != nil {
		return err
	}
	if ok && f > r.fence.Load() {
		r.fence.Store(f)
	}
	r.fenceDir = dir
	r.fenceOn.Store(true)
	return nil
}

// Fencing returns the node's current fence and whether fencing is
// enabled at all. Fence 0 with fencing enabled means "never fenced":
// unstamped writes are still accepted (the standalone state).
func (r *Registry) Fencing() (uint64, bool) {
	return r.fence.Load(), r.fenceOn.Load()
}

// InstallFence raises the node's fence to f, persisting before the
// in-memory store so an acknowledged install survives a crash. Raising
// is monotone: f at or below the current fence is a no-op (a stale
// installer learns the truth from Fencing, never lowers it). Installs
// arrive only through admin channels — promotion, the fence-exchange
// route, and the replication stream's fence header — never from the
// write path itself.
func (r *Registry) InstallFence(f uint64) error {
	if !r.fenceOn.Load() {
		return errors.New("service: fencing is not enabled on this node")
	}
	r.fenceMu.Lock()
	defer r.fenceMu.Unlock()
	if f <= r.fence.Load() {
		return nil
	}
	if err := storage.SaveFence(r.fenceDir, f); err != nil {
		return err
	}
	r.fence.Store(f)
	return nil
}

// adoptFence is InstallFence for fences observed on the replication
// stream (the router stamps its forwarded replication responses):
// best-effort, and a no-op on nodes without fencing — a follower of a
// non-fleet leader sees no stamps and needs no fence.
func (r *Registry) adoptFence(f uint64) {
	if r.fenceOn.Load() && f > r.fence.Load() {
		_ = r.InstallFence(f)
	}
}

// Remove unregisters name and returns its graph, ok=false when it was
// never registered. In-flight requests holding the graph finish against
// their resolved views; new requests 404. Durable-state cleanup is the
// caller's job (see Node.drop) — the registry only owns the name.
func (r *Registry) Remove(name string) (*Graph, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gr, ok := r.graphs[name]
	if ok {
		delete(r.graphs, name)
	}
	return gr, ok
}

// Get returns the registered graph, or ok=false.
func (r *Registry) Get(name string) (*Graph, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	gr, ok := r.graphs[name]
	return gr, ok
}

// Names lists the registered graph names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScoreComputes reports how many times score.Compute has run across the
// registry's static graphs. With the cache working it equals the number
// of static graphs that have served at least one preview request.
func (r *Registry) ScoreComputes() int64 { return r.scoreComputes.Load() }

// measureKey identifies one maintained discovery state.
type measureKey struct {
	key    score.KeyMeasure
	nonKey score.NonKeyMeasure
}

// view is one epoch's consistent read surface: the (frozen) entity graph,
// its score set and its response cache. A static graph has exactly one
// view for its lifetime; a mutable graph gets a fresh view per mutation
// epoch. Handlers resolve the view once per request and use it
// throughout, so a request started at epoch e keeps e's graph and scores
// even if writers publish newer epochs meanwhile.
type view struct {
	epoch   uint64
	mutable bool
	stats   graph.Stats
	g       *graph.EntityGraph
	snap    *dynamic.Snapshot // the live epoch's snapshot; nil on a static graph

	// gr points back to the owning Graph, where the discovery state lives
	// (a view is one epoch; the maintained Discoverers outlive it).
	gr *Graph

	// par is the worker count for this view's score computation,
	// Discoverer construction and searches (Registry.Parallelism at view
	// creation).
	par int

	// scores is set eagerly for mutable views (the incremental refresh
	// already produced it) and computed on first use through scoreOnce for
	// static views.
	scoreOnce sync.Once
	scores    *score.Set
	compute   func() *score.Set

	// resp caches rendered response bytes keyed by endpoint + canonical
	// params (cache.go). It lives inside the view on purpose: the view
	// IS the epoch, so publishing a new epoch abandons every cached body
	// of the old one with no explicit invalidation step — on a leader's
	// write batch and a follower's ApplyShipped alike, both of which
	// install views through Graph.publish.
	respMu sync.Mutex
	resp   map[string]*respSlot
}

// Scores returns the view's score set, computing it on first use for
// static views. Concurrent callers share one computation.
func (v *view) Scores() *score.Set {
	v.scoreOnce.Do(func() {
		if v.scores == nil {
			v.scores = v.compute()
		}
	})
	return v.scores
}

// replSource is what one graph can ship to followers: its WAL plus the
// origin state recovery started from (see WithOrigin). Swapped as a unit
// when a follower re-bootstraps mid-run.
type replSource struct {
	wal         *storage.WAL
	origin      *graph.EntityGraph
	originEpoch uint64
}

// FollowStatus is a follower's view of one replicated graph, published
// by its replication loop and served by the replication status endpoint.
type FollowStatus struct {
	// AppliedEpoch is the last shipped epoch applied and published.
	AppliedEpoch uint64
	// LeaderEpoch is the leader's durable epoch as of the last poll.
	LeaderEpoch uint64
	// Resyncs counts streams dropped for corruption or transport failure
	// and re-requested from the last applied epoch.
	Resyncs uint64
	// Bootstraps counts full checkpoint bootstraps (initial or after
	// falling behind the leader's truncation horizon).
	Bootstraps uint64
	// Err is the last replication failure, cleared on the next success.
	Err string
}

// Graph is one registered graph: a static entity graph or a live one,
// behind an atomically swapped epoch view. The live facade itself is
// behind an atomic pointer because a follower that falls behind the
// leader's truncation horizon replaces it wholesale (re-bootstrap)
// while readers keep serving the old view.
type Graph struct {
	name string
	reg  *Registry
	live atomic.Pointer[dynamic.Live] // non-nil iff the graph is mutable
	repl atomic.Pointer[replSource]   // non-nil iff the graph can ship its WAL
	cur  atomic.Pointer[view]

	// follow is the replication-loop status of a follower's graph.
	follow atomic.Pointer[FollowStatus]

	// notify is closed and replaced on every publish, waking replication
	// long-polls; see epochChanged.
	notifyMu sync.Mutex
	notifyCh chan struct{}

	// maintained is the graph's discovery state, one per measure pair
	// (see core.Maintained). It lives on the Graph, not the view: a
	// mutable graph carries it forward across the view swaps that
	// abandon each epoch's response cache.
	maintMu    sync.Mutex
	maintained map[measureKey]*core.Maintained

	// anytimeRefined is the highest epoch for which a background anytime
	// refinement (or a certified exact serve) has completed; nil until the
	// graph sees its first anytime request. Surfaced in the stats doc.
	anytimeRefined atomic.Pointer[uint64]
}

// Name returns the registered name.
func (gr *Graph) Name() string { return gr.name }

// Mutable reports whether the graph accepts writes.
func (gr *Graph) Mutable() bool { return gr.live.Load() != nil }

// Live returns the mutable graph's facade, or nil for static graphs.
func (gr *Graph) Live() *dynamic.Live { return gr.live.Load() }

// replSrc returns the graph's shippable state, or nil when the graph is
// static or volatile (no WAL, nothing to ship).
func (gr *Graph) replSrc() *replSource { return gr.repl.Load() }

// WAL returns the graph's write-ahead log, or nil for static/volatile
// graphs.
func (gr *Graph) WAL() *storage.WAL {
	if src := gr.repl.Load(); src != nil {
		return src.wal
	}
	return nil
}

// FollowState returns the replication-loop status published by a
// follower for this graph, or nil on a leader.
func (gr *Graph) FollowState() *FollowStatus { return gr.follow.Load() }

// epochChanged returns a channel closed at the next publish. Callers
// re-check their condition after it fires and call again for the next
// edge — the standard broadcast-channel pattern.
func (gr *Graph) epochChanged() <-chan struct{} {
	gr.notifyMu.Lock()
	defer gr.notifyMu.Unlock()
	if gr.notifyCh == nil {
		gr.notifyCh = make(chan struct{})
	}
	return gr.notifyCh
}

// broadcastEpoch wakes everything blocked in epochChanged.
func (gr *Graph) broadcastEpoch() {
	gr.notifyMu.Lock()
	defer gr.notifyMu.Unlock()
	if gr.notifyCh != nil {
		close(gr.notifyCh)
		gr.notifyCh = nil
	}
}

// install makes live the graph's facade and publishes its snapshot. A
// non-nil wal makes the graph durable and replicable: every batch is
// logged to wal before its epoch publishes (see WithDurability), and the
// graph ships wal to followers from origin (see WithOrigin). A follower's
// re-bootstrap installs over the old facade, whose view keeps serving
// readers until the new snapshot publishes.
func (gr *Graph) install(live *dynamic.Live, wal *storage.WAL, origin *graph.EntityGraph, originEpoch uint64) {
	var src *replSource
	if wal != nil {
		live.SetDurability(wal.Append)
		src = &replSource{wal: wal, origin: origin, originEpoch: originEpoch}
	}
	gr.live.Store(live)
	gr.repl.Store(src)
	gr.publish(live.Snapshot())
}

// view returns the current epoch view. Handlers call it once per request
// and thread the result through, so one request never mixes epochs.
func (gr *Graph) view() *view { return gr.cur.Load() }

// publish installs a new epoch view for snap unless a newer epoch is
// already current (concurrent writers publish out of lock order), and
// returns the view now current.
func (gr *Graph) publish(snap *dynamic.Snapshot) *view {
	nv := &view{
		epoch:   snap.Epoch,
		mutable: true,
		stats:   snap.Stats,
		g:       snap.Frozen,
		snap:    snap,
		gr:      gr,
		par:     gr.reg.Parallelism,
		scores:  snap.Scores,
	}
	for {
		old := gr.cur.Load()
		if old != nil && old.epoch >= nv.epoch {
			return old
		}
		if gr.cur.CompareAndSwap(old, nv) {
			gr.broadcastEpoch()
			return nv
		}
	}
}

// maintainedFor returns the graph's maintained discovery state for a
// measure pair, refreshed to v's epoch (creating it, cold, on first
// use; a static graph's state is refreshed only then, at epoch 0).
// Returns nil when the state has already moved past v's epoch — the
// caller's view is stale and must fall back to view.cold rather than
// roll the shared state backwards.
func (gr *Graph) maintainedFor(v *view, km score.KeyMeasure, nm score.NonKeyMeasure) *core.Maintained {
	mk := measureKey{key: km, nonKey: nm}
	gr.maintMu.Lock()
	if gr.maintained == nil {
		gr.maintained = make(map[measureKey]*core.Maintained)
	}
	m := gr.maintained[mk]
	if m == nil {
		m = core.NewMaintained(core.Options{Key: km, NonKey: nm, Parallelism: v.par})
		gr.maintained[mk] = m
	}
	gr.maintMu.Unlock()

	epoch, ok := m.Epoch()
	switch {
	case ok && epoch == v.epoch:
		return m
	case ok && epoch > v.epoch:
		return nil
	}
	// Only a live view can find the state behind it (a static graph's is
	// built once, at epoch 0), and its snapshot says what moved since.
	var dirty []graph.TypeID
	structural := !ok
	if ok {
		dirty, structural = v.snap.DirtySince(epoch)
	}
	// A concurrent refresh to a newer epoch wins benignly: Refresh
	// ignores stale epochs, and DiscoverAt then reports ErrStaleEpoch.
	m.Refresh(v.Scores(), v.epoch, dirty, structural)
	return m
}

// noteRefined records that anytime refinement completed for epoch; the
// watermark is monotone (a slower refinement for an older epoch never
// regresses it).
func (gr *Graph) noteRefined(epoch uint64) {
	for {
		old := gr.anytimeRefined.Load()
		if old != nil && *old >= epoch {
			return
		}
		e := epoch
		if gr.anytimeRefined.CompareAndSwap(old, &e) {
			return
		}
	}
}

// search runs one exact discovery at the view's epoch through the
// graph's maintained state: a certificate hit skips the Apriori search,
// and concurrent full searches for one constraint collapse into one.
// When the shared state has already moved past this view's epoch, the
// view answers from its own uncached Discoverer instead.
func (v *view) search(km score.KeyMeasure, nm score.NonKeyMeasure, c core.Constraint) (core.Preview, error) {
	if m := v.gr.maintainedFor(v, km, nm); m != nil {
		p, err := m.DiscoverAt(v.epoch, c)
		if !errors.Is(err, core.ErrStaleEpoch) {
			return p, err
		}
	}
	return v.cold(km, nm).Discover(c)
}

// cold builds an uncached Discoverer over the view's own scores: the
// fallback, exact and anytime alike, for a view older than the graph's
// maintained state. It is bit-identical to the maintained Discoverer at
// this epoch, so it answers with the same bytes.
func (v *view) cold(km score.KeyMeasure, nm score.NonKeyMeasure) *core.Discoverer {
	return core.New(v.Scores(), core.Options{Key: km, NonKey: nm, Parallelism: v.par})
}

// Entity returns the graph behind the current view (for mutable graphs,
// the frozen snapshot of the latest epoch).
func (gr *Graph) Entity() *graph.EntityGraph { return gr.view().g }

// Stats returns the current view's size statistics.
func (gr *Graph) Stats() graph.Stats { return gr.view().stats }

// Scores returns the current view's score set.
func (gr *Graph) Scores() *score.Set { return gr.view().Scores() }
