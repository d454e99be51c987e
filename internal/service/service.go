package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/uta-db/previewtables/internal/core"
	"github.com/uta-db/previewtables/internal/render"
	"github.com/uta-db/previewtables/internal/wire"
)

// Server serves a Registry over HTTP. Routes:
//
//	GET  /healthz                          liveness probe, plain "ok"
//	GET  /v1/graphs                        registered graphs with stats
//	GET  /v1/graphs/{name}/stats           one graph's stats (+ epoch when mutable)
//	GET  /v1/graphs/{name}/preview?...     optimal preview as JSON
//	GET  /v1/graphs/{name}/render?...      optimal preview as text/markdown
//	POST /v1/graphs/{name}/edges           apply a JSON edge batch (mutable graphs)
//	POST /v1/graphs/{name}/triples         apply a native-format triple batch
//	DELETE /v1/graphs/{name}               drop a migrated graph (migration nodes)
//	GET  /v1/replication/{name}/...        WAL shipping (see replication.go)
//	POST /v1/replication/promote           follower → leader (follower nodes)
//	POST /v1/replication/fence             fence exchange (fence-enabled nodes)
//	POST /v1/replication/{name}/adopt      start adopting a graph (migration nodes)
//	POST /v1/replication/{name}/promote    complete an adoption (migration nodes)
//
// Error ordering is uniform across routes: an unknown route, graph or
// action answers 404 whatever the method; a known route with a method
// outside its set answers 405 with an accurate Allow (empty on a
// read-only graph's write routes — they support no method at all); a
// method-correct write on a follower answers 503 naming the leader.
//
// Every read route serves its rendered bytes from an epoch-keyed
// response cache with strong epoch-derived ETags (see cache.go): a GET
// or HEAD whose If-None-Match names the current representation answers
// 304 without rendering, HEAD answers GET's exact headers (ETag,
// Content-Type, Content-Length) with no body, and per-request timing
// rides in the X-Previewtables-Elapsed header so bodies stay pure
// functions of (epoch, params).
//
// preview and render accept k, n, mode (concise|tight|diverse), d, key
// (coverage|walk), nonkey (coverage|entropy), tuples and rep parameters;
// render additionally accepts format (text|markdown). The write routes
// are documented on their handlers in write.go. Routing is parsed by hand
// so the package works under any go directive version (the
// pattern-matching ServeMux needs go ≥ 1.22 in go.mod).
type Server struct {
	reg *Registry

	// SearchBudget caps candidate generation per tight/diverse request
	// (core.Constraint.MaxCandidates). The exact Apriori search is
	// combinatorial in k under degenerate distance constraints (diverse
	// d=0 makes every type pair compatible), so without a budget one GET
	// could pin a CPU indefinitely. Zero disables the cap.
	SearchBudget int

	// MaxBatchEdges caps the edge count of one write batch; a batch is
	// one epoch and one score refresh, so its size bounds write-path
	// latency. Oversized batches fail with 413 — split them client-side.
	MaxBatchEdges int

	// MaxBodyBytes caps a write request's body size (413 beyond it).
	MaxBodyBytes int64

	// ReplicationWait bounds the WAL-shipping route's long poll (0 =
	// DefaultReplicationWait). A follower's wait parameter can shorten
	// one request's wait but never lengthen it past this bound.
	ReplicationWait time.Duration

	// NoCache disables the epoch-keyed response cache (cache.go): every
	// read discovers and renders cold. ETag/304/HEAD semantics are
	// unaffected — they are properties of the routes, not the cache.
	// The differential tests and loadgen's contrast arm use it;
	// previewd exposes it as -no-response-cache.
	NoCache bool

	// AnytimeBudget caps candidate generation for the immediate answer of
	// an ?anytime=1 preview request (core.Constraint.MaxCandidates for
	// AnytimeBest). Zero means unlimited — the immediate answer is then
	// already exact. previewd exposes it as -anytime-budget.
	AnytimeBudget int

	// node is set by NewNode on a migration node (a durable leader with
	// checkpoints): the adopt, per-graph promote and drop routes exist
	// only there, and answer 404 before any method check elsewhere. All
	// three are fence-gated: on a fenced node they require a stamp at or
	// above the current fence, so only the fleet router (which mints
	// fences) can drive a migration.
	node *Node

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	list        listCache
}

// DefaultSearchBudget bounds tight/diverse candidate generation per
// request: generous for real schema graphs (the paper's largest domain
// needs ~10^4 candidates at its loosest d), small enough that a
// degenerate request fails in well under a second.
const DefaultSearchBudget = 2_000_000

// DefaultMaxBatchEdges bounds one mutation batch. Each batch pays one
// O(u·deg + K²) refresh plus one freeze, so tens of thousands of edges
// per request keeps bulk loading fast without letting a single POST stall
// readers' view swaps for seconds.
const DefaultMaxBatchEdges = 50_000

// DefaultMaxBodyBytes bounds a write body (a generous multiple of
// DefaultMaxBatchEdges worth of triple lines).
const DefaultMaxBodyBytes = 16 << 20

// DefaultAnytimeBudget bounds the immediate answer of an anytime
// request: small enough that the bounded DFS returns in milliseconds on
// the 100k-entity bench graph, large enough to cover the full candidate
// volume of the paper's domains at their default constraints (where the
// "partial" answer is therefore already exact).
const DefaultAnytimeBudget = 50_000

// New returns a Server over reg with default limits.
func New(reg *Registry) *Server {
	return &Server{
		reg:           reg,
		SearchBudget:  DefaultSearchBudget,
		MaxBatchEdges: DefaultMaxBatchEdges,
		MaxBodyBytes:  DefaultMaxBodyBytes,
		AnytimeBudget: DefaultAnytimeBudget,
	}
}

// graphsDoc is the JSON body of GET /v1/graphs.
type graphsDoc struct {
	Graphs []render.GraphStatsDoc `json:"graphs"`
}

// constraintDoc echoes the constraint a preview was discovered under.
// D is a pointer so a valid d=0 on a tight/diverse request still echoes
// (omitempty on an int would drop it), while concise responses — where
// d is meaningless — omit the field entirely.
type constraintDoc struct {
	K    int    `json:"k"`
	N    int    `json:"n"`
	Mode string `json:"mode"`
	D    *int   `json:"d,omitempty"`
}

// previewResponse is the JSON body of GET /v1/graphs/{name}/preview.
// Epoch is present for mutable graphs only: it names the snapshot the
// preview was discovered against, so a client interleaving writes and
// reads can tell whether a preview already reflects its last batch.
//
// The body deliberately carries no timing field: a body must be a pure
// function of (epoch, params) for the response cache and the
// replication byte-identity proof, so per-request timing rides in the
// X-Previewtables-Elapsed header instead (see cache.go).
type previewResponse struct {
	Graph      string            `json:"graph"`
	Epoch      *uint64           `json:"epoch,omitempty"`
	Constraint constraintDoc     `json:"constraint"`
	Key        string            `json:"key_measure"`
	NonKey     string            `json:"non_key_measure"`
	Preview    render.PreviewDoc `json:"preview"`
	// Converged is present on anytime requests only: false when the
	// preview is the budget-bounded immediate answer (a background
	// refinement is converging toward the exact one), true when it is the
	// certified exact answer. The certification bit is part of the cache
	// key, so each keyed body stays a pure function of (epoch, params).
	Converged *bool `json:"converged,omitempty"`
}

// appendJSON appends the response body: what wire.MarshalJSON writes for
// r, trailing newline included, written by hand. The preview document
// goes through render.AppendPreviewDoc, and fails as it fails.
func (r *previewResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"graph":`...)
	dst = wire.AppendJSONString(dst, r.Graph)
	if r.Epoch != nil {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, *r.Epoch, 10)
	}
	dst = append(dst, `,"constraint":{"k":`...)
	dst = strconv.AppendInt(dst, int64(r.Constraint.K), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(r.Constraint.N), 10)
	dst = append(dst, `,"mode":`...)
	dst = wire.AppendJSONString(dst, r.Constraint.Mode)
	if r.Constraint.D != nil {
		dst = append(dst, `,"d":`...)
		dst = strconv.AppendInt(dst, int64(*r.Constraint.D), 10)
	}
	dst = append(dst, `},"key_measure":`...)
	dst = wire.AppendJSONString(dst, r.Key)
	dst = append(dst, `,"non_key_measure":`...)
	dst = wire.AppendJSONString(dst, r.NonKey)
	dst = append(dst, `,"preview":`...)
	dst, err := render.AppendPreviewDoc(dst, &r.Preview)
	if err != nil {
		return dst, err
	}
	if r.Converged != nil {
		dst = append(dst, `,"converged":`...)
		dst = strconv.AppendBool(dst, *r.Converged)
	}
	return append(dst, "}\n"...), nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		if !wire.RequireRead(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case path == "/v1/graphs" || path == "/v1/graphs/":
		if !wire.RequireRead(w, r) {
			return
		}
		s.handleList(w, r)
	case strings.HasPrefix(path, "/v1/graphs/"):
		s.handleGraph(w, r, strings.TrimPrefix(path, "/v1/graphs/"))
	case strings.HasPrefix(path, "/v1/replication/"):
		s.handleReplication(w, r, strings.TrimPrefix(path, "/v1/replication/"))
	default:
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", path))
	}
}

// requireWritable gates the write routes with one fixed ordering, shared
// by leader and follower modes (resource existence — the 404s — was
// already settled by the caller):
//
//  1. a read-only graph's write routes support no method at all, so any
//     method answers 405 with a deliberately empty Allow (RFC 9110
//     permits an empty list to say exactly that) — previously a GET here
//     advertised Allow: POST while POST itself was refused;
//  2. on a writable graph, a non-POST method answers 405 with Allow: POST;
//  3. a well-formed write to a follower answers 503 naming the leader in
//     the X-Previewtables-Leader header: the method exists and the graph
//     is mutable, but this node only accepts writes from the replication
//     stream — 503 (not 405) so clients retry against the leader;
//  4. a graph this node is adopting mid-migration (per-graph follower on
//     an otherwise-leading node) answers 503 the same way, because until
//     the cutover promotes it the only writer is the old owner's stream;
//  5. last, on a fence-enabled node the write's fence stamp must equal
//     the node's persisted fence exactly (409 otherwise) — see
//     writeFenceOK for why not-equal in either direction is fatal.
func (s *Server) requireWritable(w http.ResponseWriter, r *http.Request, gr *Graph) bool {
	if !gr.Mutable() {
		w.Header().Set("Allow", "")
		wire.WriteError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("graph %q is read-only; register it mutable (previewd -mutable) to accept writes", gr.Name()))
		return false
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	if leader := s.reg.Leader(); leader != "" {
		w.Header().Set(wire.LeaderHeader, leader)
		wire.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("graph %q is a read replica; write to the leader at %s", gr.Name(), leader))
		return false
	}
	if gr.FollowState() != nil {
		wire.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("graph %q is being adopted from another shard (migration in flight); write through the fleet router", gr.Name()))
		return false
	}
	return s.writeFenceOK(w, r)
}

// writeFenceOK enforces the fencing invariant on one write: with
// fencing enabled, a stamped write lands only when its stamp EQUALS the
// node's persisted fence. A lower stamp is a write routed under a
// superseded configuration (the router has since promoted someone else
// or migrated the graph); a higher stamp proves this node missed a
// fence installation — i.e. it was deposed while unreachable — and the
// write path never installs fences itself, so it refuses rather than
// adopt. An unstamped write is accepted only by a never-fenced node
// (fence 0): that is the standalone previewd, which must keep working
// without a router. Every refusal is 409 with the node's fence in the
// response header so the router can observe the disagreement.
func (s *Server) writeFenceOK(w http.ResponseWriter, r *http.Request) bool {
	cur, on := s.reg.Fencing()
	if !on {
		return true
	}
	f, stamped, err := wire.Fence(r.Header)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return false
	}
	if !stamped {
		if cur == 0 {
			return true
		}
		w.Header().Set(wire.FenceHeader, strconv.FormatUint(cur, 10))
		wire.WriteError(w, http.StatusConflict,
			fmt.Errorf("this node is fenced at epoch %d and accepts only writes stamped by its fleet router", cur))
		return false
	}
	if f != cur {
		w.Header().Set(wire.FenceHeader, strconv.FormatUint(cur, 10))
		verdict := "stale: the fleet configuration has moved on"
		if f > cur {
			verdict = "unknown here: this node was deposed while unreachable"
		}
		wire.WriteError(w, http.StatusConflict,
			fmt.Errorf("write fence %d is %s (node fence %d); this node cannot acknowledge the write", f, verdict, cur))
		return false
	}
	return true
}

// adminFenceOK gates the migration admin routes (adopt, graph-promote,
// drop): on a fenced node the request must carry a stamp at or above
// the current fence — higher stamps install (the admin channel is where
// fences legitimately arrive), lower ones mean a superseded router and
// answer 409. Unfenced nodes accept unstamped admin calls, so a
// standalone operator can still drive a migration by hand.
func (s *Server) adminFenceOK(w http.ResponseWriter, r *http.Request) bool {
	cur, on := s.reg.Fencing()
	if !on {
		return true
	}
	f, stamped, err := wire.Fence(r.Header)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return false
	}
	if !stamped {
		if cur == 0 {
			return true
		}
		w.Header().Set(wire.FenceHeader, strconv.FormatUint(cur, 10))
		wire.WriteError(w, http.StatusConflict,
			fmt.Errorf("this node is fenced at epoch %d; admin actions must carry a current fence stamp", cur))
		return false
	}
	if f < cur {
		w.Header().Set(wire.FenceHeader, strconv.FormatUint(cur, 10))
		wire.WriteError(w, http.StatusConflict,
			fmt.Errorf("admin fence %d is stale (node fence %d); a newer router owns this node", f, cur))
		return false
	}
	if f > cur {
		if err := s.reg.InstallFence(f); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("installing fence %d: %w", f, err))
			return false
		}
	}
	return true
}

// handleGraph dispatches /v1/graphs/{name}/{action}; the action-less
// /v1/graphs/{name} is the graph resource itself, which exists as a
// DELETE target on migration nodes.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request, rest string) {
	name, action, ok := strings.Cut(rest, "/")
	if (!ok || action == "") && name != "" {
		s.handleDrop(w, r, name)
		return
	}
	if !ok || name == "" || strings.Contains(action, "/") {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", r.URL.Path))
		return
	}
	gr, ok := s.reg.Get(name)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no graph %q; see /v1/graphs", name))
		return
	}
	switch action {
	case "stats":
		if wire.RequireRead(w, r) {
			s.handleStats(w, r, gr)
		}
	case "preview":
		if wire.RequireRead(w, r) {
			s.handlePreview(w, r, gr)
		}
	case "render":
		if wire.RequireRead(w, r) {
			s.handleRender(w, r, gr)
		}
	case "edges":
		if s.requireWritable(w, r, gr) {
			s.handleEdges(w, r, gr)
		}
	case "triples":
		if s.requireWritable(w, r, gr) {
			s.handleTriples(w, r, gr)
		}
	default:
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("no such action %q: want stats, preview, render, edges or triples", action))
	}
}

// handleDrop serves DELETE /v1/graphs/{name}: unregister the graph and
// delete its local durable state, the final step of migrating it to
// another shard. The resource exists only on migration nodes and only
// for registered graphs — 404 otherwise, before any method check.
// Fence-gated like the other migration admin routes, so a superseded
// router cannot delete data the current one is serving.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request, name string) {
	if s.node == nil {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", r.URL.Path))
		return
	}
	if _, ok := s.reg.Get(name); !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no graph %q; see /v1/graphs", name))
		return
	}
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", "DELETE")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if !s.adminFenceOK(w, r) {
		return
	}
	if err := s.node.drop(name); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("dropping %q: %w", name, err))
		return
	}
	wire.WriteJSON(w, struct {
		Dropped string `json:"dropped"`
	}{Dropped: name})
}

// handleList serves /v1/graphs through the one-slot listing cache: the
// cache key (and ETag scope) is the composite (name, epoch) vector of
// every registered graph, captured as view pointers once so the key and
// the body are built from the same epochs even while writers publish.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	views := make([]*view, len(names))
	refined := make([]*uint64, len(names))
	var scope strings.Builder
	scope.WriteString("graphs")
	for i, name := range names {
		gr, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		views[i] = gr.view()
		refined[i] = gr.anytimeRefined.Load()
		scope.WriteString("\x00" + views[i].etagScope(name))
		if refined[i] != nil {
			// Anytime convergence is in the body, so it must be in the
			// key: a refinement landing between requests re-renders.
			scope.WriteString("|refined=" + strconv.FormatUint(*refined[i], 10))
		}
	}
	composite := scope.String()
	s.serveCached(w, r, composite, composite, &s.list, func() (*cacheEntry, error) {
		doc := graphsDoc{Graphs: []render.GraphStatsDoc{}}
		for i, name := range names {
			if views[i] != nil {
				doc.Graphs = append(doc.Graphs, statsFor(name, views[i], refined[i]))
			}
		}
		body, err := wire.MarshalJSON(doc)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{contentType: "application/json; charset=utf-8", body: body}, nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, gr *Graph) {
	// One view load: reading stats and epoch separately could pair an old
	// epoch's counts with a concurrent writer's new epoch.
	v := gr.view()
	key := "stats"
	refined := gr.anytimeRefined.Load()
	if refined != nil {
		// Convergence state is in the body, so it joins the cache key.
		key = "stats&refined=" + strconv.FormatUint(*refined, 10)
	}
	s.serveCached(w, r, v.etagScope(gr.Name()), key, v, func() (*cacheEntry, error) {
		body, err := wire.MarshalJSON(statsFor(gr.Name(), v, refined))
		if err != nil {
			return nil, err
		}
		return &cacheEntry{contentType: "application/json; charset=utf-8", body: body}, nil
	})
}

// statsFor renders one graph's stats doc. refined is the node-local
// anytime refinement watermark (nil until the graph's first anytime
// request): the doc reports convergence relative to the view's epoch, so
// "converged" flips false the instant a write publishes a newer epoch
// and back true when refinement catches up.
func statsFor(name string, v *view, refined *uint64) render.GraphStatsDoc {
	doc := render.GraphStats(name, v.Frozen.Stats())
	if v.mutable {
		doc = doc.WithEpoch(v.Epoch)
	}
	if refined != nil {
		doc = doc.WithAnytime(*refined >= v.Epoch, *refined)
	}
	return doc
}

// discover runs one validated discovery request at the epoch view,
// mapping failures to HTTP statuses via httpError: empty preview space
// is 422 (the request was well formed; the graph just cannot satisfy
// it). Failures pass through the cache layer uncached — only successful
// renders are retained.
func (s *Server) discover(v *view, p previewParams) (core.Preview, error) {
	c := p.Constraint
	c.MaxCandidates = s.SearchBudget
	pv, err := v.search(p.Key, p.NonKey, c)
	if err != nil {
		return core.Preview{}, mapDiscoveryError(err)
	}
	return pv, nil
}

// mapDiscoveryError wraps a core discovery failure with its HTTP status.
func mapDiscoveryError(err error) error {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrNoPreview):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrSearchBudget):
		status = http.StatusUnprocessableEntity
		err = fmt.Errorf("%w: the distance constraint admits too many key-attribute subsets; tighten mode/d or lower k", err)
	}
	return &httpError{status: status, err: err}
}

// anytimeCertified reports whether an anytime request can be answered
// exactly without a full search: the maintained state holds a valid
// certificate for (epoch, constraint) — or the mode is concise, where
// exact discovery is already cheap. Within one epoch this can only flip
// false→true, so it is usable as a cache-key bit. A true answer also
// marks the epoch refined (the exact answer is about to be served).
func (s *Server) anytimeCertified(gr *Graph, v *view, p previewParams) bool {
	c := p.Constraint
	c.MaxCandidates = s.SearchBudget
	if c.Mode == core.Concise {
		gr.noteRefined(v.Epoch)
		return true
	}
	if !gr.maintainedFor(v, p.Key, p.NonKey).CertifiedAt(v.Epoch, c) {
		return false
	}
	gr.noteRefined(v.Epoch)
	return true
}

// anytimeDiscover answers an anytime request: exactly (through the
// certificate fast path) when certified, otherwise with the
// deterministic budget-bounded best-so-far, kicking off a background
// refinement toward a certificate for this epoch.
func (s *Server) anytimeDiscover(gr *Graph, v *view, p previewParams, certified bool) (core.Preview, error) {
	if certified {
		return s.discover(v, p)
	}
	ac := p.Constraint
	ac.MaxCandidates = s.AnytimeBudget
	pv, _, err := gr.maintainedFor(v, p.Key, p.NonKey).AnytimeAt(v.Epoch, ac)
	if errors.Is(err, core.ErrStaleEpoch) {
		// The shared state moved past this view's epoch: the same
		// fallback as view.search, with the same bytes.
		pv, _, err = v.cold(p.Key, p.NonKey).AnytimeBest(ac)
	}
	go s.refineAnytime(gr, v, p)
	if err != nil {
		return core.Preview{}, mapDiscoveryError(err)
	}
	return pv, nil
}

// refineAnytime runs the full search for an anytime request in the
// background, installing the certificate that lets the next request at
// this epoch serve the exact answer, and recording convergence for the
// stats doc. Concurrent refinements for one constraint collapse inside
// Maintained; a refinement that loses an epoch race simply exits — the
// newer epoch's own requests refine themselves.
func (s *Server) refineAnytime(gr *Graph, v *view, p previewParams) {
	c := p.Constraint
	c.MaxCandidates = s.SearchBudget
	_, err := gr.maintainedFor(v, p.Key, p.NonKey).DiscoverAt(v.Epoch, c)
	if err == nil || errors.Is(err, core.ErrNoPreview) || errors.Is(err, core.ErrSearchBudget) {
		gr.noteRefined(v.Epoch)
	}
}

func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request, gr *Graph) {
	p, err := parsePreviewParams(r.URL.Query())
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	v := gr.view()
	key := p.cacheKey("preview?")
	var certified bool
	if p.Anytime {
		// The certification bit joins the cache key: the conv=false key
		// maps to the deterministic budget-bounded body, the conv=true key
		// to the exact body — each pure per (epoch, key). Within an epoch
		// the bit only flips false→true, so a client polling the same URL
		// sees the partial answer until refinement lands, then the exact
		// one (under a new ETag).
		certified = s.anytimeCertified(gr, v, p)
		key += "&converged=" + strconv.FormatBool(certified)
	}
	s.serveCached(w, r, v.etagScope(gr.Name()), key, v, func() (*cacheEntry, error) {
		var (
			pv  core.Preview
			err error
		)
		if p.Anytime {
			pv, err = s.anytimeDiscover(gr, v, p, certified)
		} else {
			pv, err = s.discover(v, p)
		}
		if err != nil {
			return nil, err
		}
		mode := constraintDoc{
			K:    p.Constraint.K,
			N:    p.Constraint.N,
			Mode: modeName(p.Constraint.Mode),
		}
		if p.Constraint.Mode != core.Concise {
			d := p.Constraint.D
			mode.D = &d
		}
		resp := previewResponse{
			Graph:      gr.Name(),
			Constraint: mode,
			Key:        keyMeasureName(p.Key),
			NonKey:     nonKeyMeasureName(p.NonKey),
			Preview:    render.PreviewDocument(v.Frozen, &pv, renderOptions(p)),
		}
		if p.Anytime {
			c := certified
			resp.Converged = &c
		}
		if v.mutable {
			epoch := v.Epoch
			resp.Epoch = &epoch
		}
		return newEntry("application/json; charset=utf-8", resp.appendJSON)
	})
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request, gr *Graph) {
	q := r.URL.Query()
	format := strings.ToLower(q.Get("format"))
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "markdown" {
		wire.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q: want text or markdown", format))
		return
	}
	p, err := parsePreviewParams(q)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	v := gr.view()
	key := p.cacheKey("render?format=" + format + "&")
	s.serveCached(w, r, v.etagScope(gr.Name()), key, v, func() (*cacheEntry, error) {
		pv, err := s.discover(v, p)
		if err != nil {
			return nil, err
		}
		opts := renderOptions(p)
		if format == "markdown" {
			return newEntry("text/markdown; charset=utf-8", func(b []byte) ([]byte, error) {
				return render.AppendMarkdownPreview(b, v.Frozen, &pv, opts), nil
			})
		}
		return newEntry("text/plain; charset=utf-8", func(b []byte) ([]byte, error) {
			return render.AppendPreview(b, v.Frozen, &pv, opts), nil
		})
	})
}

// renderOptions maps request parameters onto render options. Sampling
// uses render's default stream, fresh per preview, so identical requests
// return identical tuples.
func renderOptions(p previewParams) render.Options {
	return render.Options{Tuples: p.Tuples, Representative: p.Representative}
}
