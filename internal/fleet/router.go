package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// DefaultFailAfter is how many consecutive failed leader probes trigger
// a failover. One transient connection blip should not depose a leader.
const DefaultFailAfter = 2

// DefaultProbeTimeout bounds each health/lag probe request. Probes must
// fail fast — a hung leader is exactly the case they exist to detect.
const DefaultProbeTimeout = 2 * time.Second

// ShardSpec configures one shard at router construction: a leader
// serving `-mutable -wal-dir` plus any number of read replicas
// following it (directly or through this router).
type ShardSpec struct {
	ID        string
	Leader    string
	Followers []string
}

// RouterOptions tunes a Router. The zero value is usable.
type RouterOptions struct {
	Vnodes       int           // ring points per shard (<=0 = DefaultVnodes)
	FailAfter    int           // consecutive leader-probe failures before failover (<=0 = DefaultFailAfter)
	ProbeTimeout time.Duration // per-probe request bound (<=0 = DefaultProbeTimeout)
	Logf         func(format string, args ...any)
}

// backend is one node of a shard as the router sees it: its base URL
// plus the probe loop's latest verdict. All mutable fields are guarded
// by the Router's mu.
type backend struct {
	url   string
	fails int               // consecutive failed probes
	lag   map[string]uint64 // per-graph replication lag, present only when known
}

// shard is a leader plus its followers, with a round-robin cursor for
// read spreading.
type shard struct {
	id        string
	leader    *backend
	followers []*backend
	graphs    []string // sorted; discovered from the leader's /v1/graphs
	// rr is the read-spreading cursor; atomic so the read hot path can
	// bump it under the shared RLock instead of serializing on mu.
	rr atomic.Uint64
	// fence is the shard's current fencing epoch as the router knows it:
	// 0 until the first successful exchange with the leader (unfenced —
	// writes go unstamped), then monotonically increasing — bumped at
	// every promotion and at every migration cutover that takes graphs
	// away from this shard. Guarded by atomics, not mu: it is read on
	// every proxied write.
	fence atomic.Uint64
	// fenceWarned de-noises the probe log when a shard's backend cannot
	// fence at all (static or volatile previewd): warn once, not per sweep.
	fenceWarned atomic.Bool
	// replSrc, when non-nil, overrides where a graph's replication
	// routes forward — set only during a failover's catch-up phase,
	// pointing each graph at the most-advanced surviving follower so
	// the promotion candidate (whose polls flow through the router)
	// can pull the epochs it is missing before it starts leading.
	replSrc map[string]string
}

// Router is the fleet's front door: an http.Handler that owns no graph
// data, only the ring and the shard map. Reads for a graph go to a
// caught-up follower of the owning shard (falling back to the leader),
// every other method goes to the owning leader, and the replication
// endpoints are forwarded to the leader so followers can tail through
// the router — which is what makes failover transparent to survivors:
// when a leader dies and a follower is promoted, the router re-points
// the forwarding and the remaining followers keep tailing without
// being reconfigured.
type Router struct {
	// ring is swapped atomically by runtime membership changes
	// (membership.go); every request resolves ownership against one
	// consistent ring. vnodes is pinned at construction so rebuilt rings
	// hash identically to the original.
	ring         atomic.Pointer[Ring]
	vnodes       int
	failAfter    int
	probeTimeout time.Duration
	logf         func(string, ...any)

	// adminMu serializes membership changes (add/remove shard): a
	// migration is a multi-step pipeline and two interleaved ones could
	// each observe the other's half-moved graphs.
	adminMu sync.Mutex

	// migrateHook, when non-nil, observes migration phases ("adopted",
	// "cutover", "done") per graph — the membership test asserts read
	// byte-identity in the middle of a live migration through it.
	migrateHook func(phase, graph string)

	// proxy forwards client traffic: no timeout, because the replication
	// WAL route long-polls (up to DefaultReplicationWait) and a router
	// must not sever a healthy long-poll. probe is the opposite: every
	// health/lag check must return fast or count as a failure.
	proxy *http.Client
	probe *http.Client

	mu        sync.RWMutex
	shards    map[string]*shard
	failovers int

	stop chan struct{}
	done chan struct{}
}

// NewRouter builds a router over the given shards. The initial ring is
// built from the shard IDs; runtime membership changes (AddShard /
// RemoveShard, driven over the /v1/fleet/shards admin routes) rebuild
// it and migrate the ~1/N reassigned graphs. Failover replaces a
// shard's leader, never the shard.
func NewRouter(specs []ShardSpec, opts RouterOptions) (*Router, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: a router needs at least one shard")
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = DefaultFailAfter
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rt := &Router{
		vnodes:       opts.Vnodes,
		failAfter:    opts.FailAfter,
		probeTimeout: opts.ProbeTimeout,
		logf:         opts.Logf,
		proxy:        &http.Client{},
		probe:        &http.Client{Timeout: opts.ProbeTimeout},
		shards:       make(map[string]*shard, len(specs)),
	}
	ids := make([]string, 0, len(specs))
	for _, sp := range specs {
		if sp.ID == "" || sp.Leader == "" {
			return nil, fmt.Errorf("fleet: shard needs an id and a leader URL, got %+v", sp)
		}
		if _, dup := rt.shards[sp.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard id %q", sp.ID)
		}
		sh := &shard{id: sp.ID, leader: &backend{url: strings.TrimRight(sp.Leader, "/")}}
		for _, f := range sp.Followers {
			sh.followers = append(sh.followers, &backend{url: strings.TrimRight(f, "/")})
		}
		rt.shards[sp.ID] = sh
		ids = append(ids, sp.ID)
	}
	rt.ring.Store(NewRing(ids, opts.Vnodes))
	return rt, nil
}

// AddFollower registers a follower with a shard after construction —
// the boot order in tests (and rolling deploys) starts the router
// first, then followers that tail through it.
func (rt *Router) AddFollower(shardID, url string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh, ok := rt.shards[shardID]
	if !ok {
		return fmt.Errorf("fleet: no shard %q", shardID)
	}
	sh.followers = append(sh.followers, &backend{url: strings.TrimRight(url, "/")})
	return nil
}

// Owner returns the shard ID owning a graph name.
func (rt *Router) Owner(graph string) string { return rt.ring.Load().Owner(graph) }

// Failovers reports how many leader promotions this router has driven.
func (rt *Router) Failovers() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.failovers
}

// ServeHTTP implements the fleet front door. The route discipline
// mirrors internal/service exactly — resource existence first (404
// whatever the method), then the route's method set (405 with accurate
// Allow) — with everything graph-scoped forwarded to the owning shard,
// which settles the rest (its own 404s, 405s, and the follower 503).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		if !wire.RequireRead(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case path == "/v1/fleet":
		if !wire.RequireRead(w, r) {
			return
		}
		rt.handleFleet(w, r)
	case path == "/v1/fleet/shards" || path == "/v1/fleet/shards/":
		rt.handleShardAdd(w, r)
	case strings.HasPrefix(path, "/v1/fleet/shards/"):
		rt.handleShardRemove(w, r, strings.TrimPrefix(path, "/v1/fleet/shards/"))
	case path == "/v1/graphs" || path == "/v1/graphs/":
		if !wire.RequireRead(w, r) {
			return
		}
		rt.handleMergedList(w, r)
	case strings.HasPrefix(path, "/v1/graphs/"):
		graph, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/graphs/"), "/")
		rt.forwardGraph(w, r, graph, r.Method == http.MethodGet || r.Method == http.MethodHead)
	case path == "/v1/replication/promote" || path == "/v1/replication/fence":
		// Node-level actions, not graph routes, and neither is the
		// router's to take: promote exists on follower processes, and the
		// router is nobody's replica; the fence exchange is the router's
		// own call to each leader. Forwarded like a graph's route (to the
		// owner of a graph named "promote" or "fence"), a client could
		// raise that leader's fence and have every routed write refused.
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("%s is a node's action, not a route of the router; send it to a shard's node directly", path))
	case strings.HasPrefix(path, "/v1/replication/"):
		graph, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/replication/"), "/")
		rt.forwardRepl(w, r, graph)
	default:
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", path))
	}
}

// forwardGraph proxies a graph-scoped request to the owning shard:
// reads (spread=true) to a caught-up follower with leader fallback,
// everything else to the leader.
func (rt *Router) forwardGraph(w http.ResponseWriter, r *http.Request, graph string, spread bool) {
	owner := rt.ring.Load().Owner(graph)
	rt.mu.RLock()
	sh := rt.shards[owner]
	rt.mu.RUnlock()
	if sh == nil {
		// Unreachable with a non-empty ring, but never answer with a nil
		// dereference if the shard map and ring ever disagree.
		wire.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard owns graph %q", graph))
		return
	}
	if r.Method == http.MethodPost {
		// Stamp the write with the owning shard's fence (POST only: the
		// fence authorizes writes, and stamping DELETE would launder the
		// drop admin route through the router — unstamped, a fenced node
		// refuses it, which is the point). If the shard's configuration
		// changes while this request is in flight, the stamp no longer
		// matches the node's installed fence and the node answers 409
		// instead of acknowledging a write the router no longer stands
		// behind.
		wire.SetFence(r.Header, sh.fence.Load())
	}
	if spread {
		if f := rt.pickFollower(sh, graph); f != "" {
			if wire.Forward(w, r, rt.proxy, f) {
				return
			}
			// The chosen follower died between probe and proxy: fall
			// through to the leader rather than failing the read.
		}
	}
	rt.mu.RLock()
	leaderURL := sh.leader.url
	rt.mu.RUnlock()
	if !wire.Forward(w, r, rt.proxy, leaderURL) {
		wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %q is unreachable", owner))
	}
}

// forwardRepl proxies a replication route for a graph. Normally the
// owning leader answers — its WAL is the shard's authoritative log —
// but during a failover's catch-up phase the route is overridden to
// the most-advanced surviving follower for that graph (followers serve
// the same replication routes from their own WALs, record for record
// as shipped), so the promotion candidate can pull the epochs it is
// missing through the same path it always tails.
func (rt *Router) forwardRepl(w http.ResponseWriter, r *http.Request, graph string) {
	owner := rt.ring.Load().Owner(graph)
	rt.mu.RLock()
	sh := rt.shards[owner]
	var target string
	if sh != nil {
		target = sh.leader.url
		if u, ok := sh.replSrc[graph]; ok {
			target = u
		}
	}
	rt.mu.RUnlock()
	if sh == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard owns graph %q", graph))
		return
	}
	// Stamp the shard's fence on the forwarded RESPONSE (Forward copies
	// the backend's headers on top; a preset survives because Add, not
	// Set, merges them — and the backend never emits this header itself).
	// Followers tailing through the router adopt it (follower.go), which
	// keeps every replica's persisted fence current without another
	// round trip.
	wire.SetFence(w.Header(), sh.fence.Load())
	if !wire.Forward(w, r, rt.proxy, target) {
		wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %q replication source is unreachable", owner))
	}
}

// pickFollower returns the URL of a healthy, caught-up-on-graph
// follower, round-robin across candidates; "" when none qualifies.
// "Caught up" means the last probe saw replication lag 0 for this graph
// — decidable because every follower publishes contiguous epochs, so
// applied == leader-epoch is the whole story, not a lower bound.
//
// The cursor bump is atomic under the shared read lock: spread reads
// are the router's hot path, and taking the exclusive mu here would
// serialize every read against every other just to increment a counter.
func (rt *Router) pickFollower(sh *shard, graph string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var candidates []string
	for _, f := range sh.followers {
		if f.fails == 0 && f.lag != nil {
			if lag, known := f.lag[graph]; known && lag == 0 {
				candidates = append(candidates, f.url)
			}
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	n := sh.rr.Add(1)
	return candidates[n%uint64(len(candidates))]
}

// shardList is the part of a backend's /v1/graphs body the merger needs:
// entries stay raw so the splice is byte-preserving, with only the name
// peeked at for ordering.
type shardList struct {
	Graphs []json.RawMessage `json:"graphs"`
}

// handleMergedList answers GET /v1/graphs with the union of every
// shard's list: entries spliced verbatim (byte-identical to the owning
// shard's rendering) and sorted by graph name, under a derived strong
// ETag — sha256 over the per-shard ETags — so the merged document is
// conditional-GET cacheable exactly like a single node's: any shard
// publishing an epoch changes its own list ETag and therefore ours.
func (rt *Router) handleMergedList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.mu.RLock()
	type target struct{ id, url string }
	targets := make([]target, 0, len(rt.shards))
	for id, sh := range rt.shards {
		targets = append(targets, target{id, sh.leader.url})
	}
	rt.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	type entry struct {
		name string
		raw  json.RawMessage
	}
	var entries []entry
	var scope strings.Builder
	scope.WriteString("fleet-graphs")
	ring := rt.ring.Load()
	for _, tg := range targets {
		// Bounded at probe-timeout scale per shard: the untimed proxy
		// client exists for long-polls, but a list fetch that a single
		// hung leader can stall forever would wedge every merged-list
		// request behind it. Degrade to a 502 naming the shard instead.
		ctx, cancel := context.WithTimeout(r.Context(), rt.probeTimeout)
		var doc shardList
		hdr, err := wire.Call(ctx, rt.proxy, http.MethodGet, tg.url+"/v1/graphs", 0, nil, &doc)
		cancel()
		if err != nil {
			wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("listing shard %q: %w", tg.id, err))
			return
		}
		for _, g := range doc.Graphs {
			var peek struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(g, &peek); err != nil {
				wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("listing shard %q: %w", tg.id, err))
				return
			}
			if ring.Owner(peek.Name) != tg.id {
				// Splice only the owner's entry. Mid-migration a graph is
				// briefly hosted on two shards (the adopter's copy until the
				// source drops it); keeping both would double-list the name.
				// A misprovisioned graph — hosted only off its owner — drops
				// out of the listing entirely, deliberately: it is
				// unreachable through the router anyway, and the probe sweep
				// already logs the misplacement.
				continue
			}
			entries = append(entries, entry{name: peek.Name, raw: g})
		}
		fmt.Fprintf(&scope, "\n%s=%s", tg.id, hdr.Get("ETag"))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	etag := wire.StrongETag([]byte(scope.String()))
	h := w.Header()
	h.Set("ETag", etag)
	wire.SetElapsed(h, start)
	if inm := r.Header.Get("If-None-Match"); inm == "*" || (inm != "" && wire.ETagMatches(inm, etag)) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	merged := shardList{Graphs: make([]json.RawMessage, 0, len(entries))}
	for _, e := range entries {
		merged.Graphs = append(merged.Graphs, e.raw)
	}
	body, err := wire.MarshalJSON(merged)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = w.Write(body)
}

// fleetDoc is the JSON body of GET /v1/fleet: the router's own view of
// the topology — who leads, who follows at what lag, and how many
// failovers it has driven.
type fleetDoc struct {
	Shards    []fleetShardDoc `json:"shards"`
	Failovers int             `json:"failovers"`
}

type fleetShardDoc struct {
	ID        string         `json:"id"`
	Leader    string         `json:"leader"`
	Fence     uint64         `json:"fence"`
	Graphs    []string       `json:"graphs"`
	Followers []fleetNodeDoc `json:"followers"`
}

type fleetNodeDoc struct {
	URL     string            `json:"url"`
	Healthy bool              `json:"healthy"`
	Lag     map[string]uint64 `json:"lag,omitempty"`
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.mu.RLock()
	doc := fleetDoc{Shards: []fleetShardDoc{}, Failovers: rt.failovers}
	for _, sh := range rt.shards {
		sd := fleetShardDoc{
			ID:        sh.id,
			Leader:    sh.leader.url,
			Fence:     sh.fence.Load(),
			Graphs:    append([]string{}, sh.graphs...),
			Followers: []fleetNodeDoc{},
		}
		for _, f := range sh.followers {
			var lag map[string]uint64
			if f.lag != nil {
				lag = make(map[string]uint64, len(f.lag))
				for g, l := range f.lag {
					lag[g] = l
				}
			}
			sd.Followers = append(sd.Followers, fleetNodeDoc{URL: f.url, Healthy: f.fails == 0, Lag: lag})
		}
		doc.Shards = append(doc.Shards, sd)
	}
	rt.mu.RUnlock()
	sort.Slice(doc.Shards, func(i, j int) bool { return doc.Shards[i].ID < doc.Shards[j].ID })

	body, err := wire.MarshalJSON(doc)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	wire.SetElapsed(h, start)
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = w.Write(body)
}
