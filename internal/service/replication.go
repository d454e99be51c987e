package service

// Replication endpoints: WAL shipping from a leader to its followers.
//
//	GET  /v1/replication/{graph}/status             replication status doc
//	GET  /v1/replication/{graph}/wal?from=E&wait=D  shipped records with epochs > E
//	GET  /v1/replication/{graph}/checkpoint         bootstrap snapshot + epoch header
//	POST /v1/replication/promote                    follower → leader, whole node (follower nodes)
//	POST /v1/replication/fence                      fence exchange (fence-enabled nodes)
//	POST /v1/replication/{graph}/adopt              begin adopting a graph (migration nodes)
//	POST /v1/replication/{graph}/promote            complete an adoption, one graph (migration nodes)
//
// The wal route streams records in the shipped framing (the segment
// record framing verbatim; see storage.AppendWALRecord), capped at the
// durable epoch observed when the response started. With nothing new to
// ship it long-polls — the publish broadcast wakes it — and answers an
// empty 200 at the wait deadline, so a quiet leader costs a follower one
// cheap request per wait interval. A `from` behind the truncation
// horizon answers 410 Gone: the records are no longer on disk and the
// follower must re-bootstrap from the checkpoint route; a `from` ahead
// of the leader's durable epoch answers 409 Conflict — the follower is
// following the wrong leader (or a reset one) and tailing cannot
// reconcile them.
//
// The checkpoint route serves the current frozen snapshot at its epoch,
// and a follower tails the WAL from there. The snapshot carries every
// parallel copy of an edge, so a follower booted from it counts what the
// leader counts, and a live graph's scores are a function of its state,
// so from its first epoch on the follower serves the leader's bytes.
//
// Replication status deliberately lives under /v1/replication, not in
// the graph stats document: every /v1/graphs read surface stays
// byte-identical between a leader and its caught-up followers, which is
// the invariant the differential tests pin.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/wire"
)

// DefaultReplicationWait bounds the wal route's long poll; a follower's
// request-level wait parameter can only shorten it.
const DefaultReplicationWait = 25 * time.Second

// replStatusDoc is the JSON body of GET /v1/replication/{graph}/status.
// Pointer fields appear per role: a leader reports its durable epoch and
// horizon; a follower additionally reports its replication loop's
// progress against the leader.
type replStatusDoc struct {
	Graph string `json:"graph"`
	// Role is "leader" for a graph shipping its own WAL, "follower" for
	// a replica applying a shipped one.
	Role string `json:"role"`
	// Epoch is the published epoch readers currently see.
	Epoch uint64 `json:"epoch"`
	// DurableEpoch is the WAL's last epoch — what a follower can reach.
	DurableEpoch uint64 `json:"durable_epoch"`
	// Horizon is the lowest `from` the wal route can serve: records with
	// epochs <= Horizon-1 may be truncated away. A follower at or above
	// Horizon can tail; one below it must re-bootstrap.
	Horizon uint64 `json:"horizon"`

	// Leader, AppliedEpoch, LeaderEpoch, Lag and Resyncs describe a
	// follower's replication loop (absent on leaders).
	Leader       string  `json:"leader,omitempty"`
	AppliedEpoch *uint64 `json:"applied_epoch,omitempty"`
	LeaderEpoch  *uint64 `json:"leader_epoch,omitempty"`
	Lag          *uint64 `json:"lag,omitempty"`
	Resyncs      *uint64 `json:"resyncs,omitempty"`
	Bootstraps   *uint64 `json:"bootstraps,omitempty"`
	// Error is the replication loop's last failure, if it is currently
	// failing (cleared by the next successful poll).
	Error string `json:"error,omitempty"`
}

// handleReplication dispatches /v1/replication/{graph}/{action}, plus
// the node-level promote action (no graph segment: promotion flips the
// whole node, every followed graph at once).
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request, rest string) {
	switch rest {
	case "promote":
		s.handlePromote(w, r)
		return
	case "fence":
		s.handleFence(w, r)
		return
	}
	name, action, ok := strings.Cut(rest, "/")
	if !ok || name == "" || strings.Contains(action, "/") {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", r.URL.Path))
		return
	}
	if action == "adopt" {
		// Adoption targets a graph this node does NOT yet hold — resolve
		// the route before the registry lookup that would 404 it.
		s.handleAdopt(w, r, name)
		return
	}
	gr, ok := s.reg.Get(name)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no graph %q; see /v1/graphs", name))
		return
	}
	switch action {
	case "status", "wal", "checkpoint":
	case "promote":
		s.handleGraphPromote(w, r, gr)
		return
	default:
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("no such replication action %q: want status, wal, checkpoint, adopt or promote", action))
		return
	}
	if !wire.RequireRead(w, r) {
		return
	}
	// A volatile follower has replication status but no WAL of its own to
	// ship; only the shipping routes require one.
	wal := gr.WAL()
	if wal == nil && !(action == "status" && gr.FollowState() != nil) {
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("graph %q is not replicated: it has no write-ahead log (previewd -mutable -wal-dir)", name))
		return
	}
	switch action {
	case "status":
		s.handleReplStatus(w, gr, wal)
	case "wal":
		s.handleReplWAL(w, r, gr, wal)
	case "checkpoint":
		s.handleReplCheckpoint(w, gr, wal)
	}
}

// handlePromote serves POST /v1/replication/promote: the admin action a
// fleet router invokes on a caught-up follower when its leader dies. It
// promotes every follower StartFollower registered, so the route exists
// only on follower nodes — everywhere else it answers 404, before any
// method check, like every other nonexistent resource. Promotion is
// idempotent: a repeated promote answers 200 again.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	fs := s.reg.followers()
	if len(fs) == 0 {
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("this node is not a follower; there is nothing to promote"))
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	// The router carries the shard's new fence on the promote request;
	// installing it BEFORE the flip means that from the very first write
	// this node acknowledges as leader, it is fenced against the router
	// ever re-issuing the old configuration's stamps.
	fence, stamped, err := wire.Fence(r.Header)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if stamped {
		if err := s.reg.InstallFence(fence); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("installing fence %d: %w", fence, err))
			return
		}
	}
	for _, f := range fs {
		if err := f.Promote(); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("promoting: %w", err))
			return
		}
	}
	log.Printf("promoted: now leading %d graph(s)", len(fs))
	wire.WriteJSON(w, struct {
		Promoted bool `json:"promoted"`
	}{Promoted: true})
}

// handleFence serves POST /v1/replication/fence, the fence exchange:
// the caller proposes a fence, the node raises its persisted fence to
// at least that value, and the response reports the fence now in force
// — max(proposed, persisted). The exchange is how a router (re)learns
// a shard's fence: a freshly started router proposes 1 and adopts
// whatever comes back, so a router restart can never regress a fleet
// below fences already persisted. The route exists only on
// fence-enabled nodes (previewd with -wal-dir); elsewhere it 404s like
// any other nonexistent resource.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	cur, on := s.reg.Fencing()
	if !on {
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("this node does not persist a fence; start previewd with -wal-dir to join a fleet"))
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req struct {
		Fence uint64 `json:"fence"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad fence body: %v", err))
		return
	}
	if req.Fence > cur {
		if err := s.reg.InstallFence(req.Fence); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("installing fence %d: %w", req.Fence, err))
			return
		}
	}
	cur, _ = s.reg.Fencing()
	wire.WriteJSON(w, struct {
		Fence uint64 `json:"fence"`
	}{Fence: cur})
}

// handleAdopt serves POST /v1/replication/{graph}/adopt: begin tailing
// a graph this node does not yet hold from another shard's leader (the
// first phase of migrating it here). The body names the source:
// {"source": "http://old-leader:8080"}. A name that is not one path
// element answers 400 before the fence check, so it changes nothing.
// Fence-gated; 409 when the graph is already registered here (adopting
// over live state would be a divergence bomb, and a retry of an
// in-flight adoption should land on the status route, not start over).
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request, name string) {
	if s.node == nil {
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("this node does not adopt graphs at runtime; start previewd with -mutable -wal-dir -checkpoint-dir to be a migration target"))
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if err := checkGraphName(name); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if !s.adminFenceOK(w, r) {
		return
	}
	var req struct {
		Source string `json:"source"`
	}
	err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req)
	if err == nil && req.Source == "" {
		err = errors.New(`"source" is missing or empty`)
	}
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("adopt body must name a source leader URL: %v", err))
		return
	}
	if _, ok := s.reg.Get(name); ok {
		wire.WriteError(w, http.StatusConflict,
			fmt.Errorf("graph %q is already registered on this node", name))
		return
	}
	if err := s.node.adopt(name, req.Source); err != nil {
		wire.WriteError(w, http.StatusBadGateway, fmt.Errorf("adopting %q from %s: %w", name, req.Source, err))
		return
	}
	wire.WriteJSON(w, struct {
		Adopting string `json:"adopting"`
		Source   string `json:"source"`
	}{Adopting: name, Source: req.Source})
}

// handleGraphPromote serves POST /v1/replication/{graph}/promote: the
// cutover half of adoption — stop tailing the source and open the graph
// for writes on this node. Unlike the node-level promote (which flips a
// whole follower process), this flips one graph on an otherwise-leading
// node. Fence-gated.
func (s *Server) handleGraphPromote(w http.ResponseWriter, r *http.Request, gr *Graph) {
	if s.node == nil {
		wire.WriteError(w, http.StatusNotFound,
			fmt.Errorf("this node does not promote single graphs; see POST /v1/replication/promote for whole-node promotion"))
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if !s.adminFenceOK(w, r) {
		return
	}
	if err := s.node.promote(gr.Name()); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("promoting %q: %w", gr.Name(), err))
		return
	}
	wire.WriteJSON(w, struct {
		Promoted string `json:"promoted"`
	}{Promoted: gr.Name()})
}

// walRange reads the shippable bracket: the durable epoch and the lowest
// `from` still on disk.
func walRange(wal *storage.WAL) (horizon, durable uint64) {
	durable, _ = wal.LastEpoch()
	horizon = durable // empty log: only a caught-up follower can tail
	if first, ok := wal.FirstEpoch(); ok {
		horizon = first - 1
	}
	return horizon, durable
}

func (s *Server) handleReplStatus(w http.ResponseWriter, gr *Graph, wal *storage.WAL) {
	doc := replStatusDoc{
		Graph: gr.Name(),
		Role:  "leader",
		Epoch: gr.view().epoch,
	}
	if wal != nil {
		doc.Horizon, doc.DurableEpoch = walRange(wal)
	}
	if st := gr.FollowState(); st != nil {
		doc.Role = "follower"
		doc.Leader = s.reg.Leader()
		applied, leaderEpoch := st.AppliedEpoch, st.LeaderEpoch
		doc.AppliedEpoch = &applied
		doc.LeaderEpoch = &leaderEpoch
		lag := uint64(0)
		if leaderEpoch > applied {
			lag = leaderEpoch - applied
		}
		doc.Lag = &lag
		resyncs, bootstraps := st.Resyncs, st.Bootstraps
		doc.Resyncs = &resyncs
		doc.Bootstraps = &bootstraps
		doc.Error = st.Err
	}
	wire.WriteJSON(w, doc)
}

// handleReplWAL ships records with epochs in (from, durable], long-polling
// when the follower is caught up.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request, gr *Graph, wal *storage.WAL) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("from must be the last applied epoch: %v", err))
		return
	}
	wait := s.replicationWait()
	if ws := q.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", ws))
			return
		}
		if d < wait {
			wait = d
		}
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		// Grab the broadcast channel BEFORE reading the durable epoch: a
		// publish landing between the two closes the channel we hold, so
		// the select below fires and the loop re-checks — the wake-up can
		// never slip between the check and the wait.
		changed := gr.epochChanged()
		horizon, durable := walRange(wal)
		switch {
		case from > durable:
			wire.WriteError(w, http.StatusConflict, fmt.Errorf(
				"follower epoch %d is ahead of the leader's durable epoch %d; the nodes have diverged", from, durable))
			return
		case from < horizon:
			wire.WriteError(w, http.StatusGone, fmt.Errorf(
				"epoch %d is behind the truncation horizon %d; bootstrap from /v1/replication/%s/checkpoint", from, horizon, gr.Name()))
			return
		case from < durable:
			s.shipWAL(w, gr, wal, from, durable)
			return
		}
		// Caught up: wait for the next publish (records are durable
		// strictly before their epoch publishes, so by the time the
		// broadcast fires the record it announces is shippable).
		select {
		case <-changed:
		case <-deadline.C:
			w.Header().Set(wire.EpochHeader, strconv.FormatUint(durable, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK) // empty body: nothing new
			return
		case <-r.Context().Done():
			return
		}
	}
}

// maxShipRecords chunks one wal response: a follower far behind gets its
// backlog in bounded pieces (it re-requests from its advanced cursor
// immediately, since it is still behind the durable epoch), so the
// leader never parses or buffers the whole history for one request.
const maxShipRecords = 4096

// shipWAL writes the records in (from, durable] in the shipped framing,
// chunked at maxShipRecords.
func (s *Server) shipWAL(w http.ResponseWriter, gr *Graph, wal *storage.WAL, from, durable uint64) {
	recs, err := storage.ReadWALAfterN(wal.Dir(), from, maxShipRecords)
	// Drop records past the durable cap: they may be mid-append, and a
	// torn or damaged tail beyond the cap is not the follower's problem.
	for len(recs) > 0 && recs[len(recs)-1].Epoch > durable {
		recs = recs[:len(recs)-1]
	}
	// A full chunk is a complete answer even if a scan error lurks past
	// it or the durable epoch is further ahead.
	if err != nil && len(recs) < maxShipRecords && (len(recs) == 0 || recs[len(recs)-1].Epoch < durable) {
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, storage.ErrCorrupt) {
			// A checkpoint truncated segments between our horizon check and
			// the read; the follower re-requests and gets the 410 properly.
			wire.WriteError(w, http.StatusGone, fmt.Errorf(
				"log moved while reading from epoch %d; retry (%v)", from, err))
		} else {
			wire.WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if len(recs) == 0 || recs[0].Epoch != from+1 {
		wire.WriteError(w, http.StatusGone, fmt.Errorf(
			"epoch %d is no longer contiguous with the log; bootstrap from /v1/replication/%s/checkpoint", from, gr.Name()))
		return
	}
	w.Header().Set(wire.EpochHeader, strconv.FormatUint(durable, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	var buf []byte
	for _, rec := range recs {
		buf = storage.AppendWALRecord(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			return // follower went away; it will re-request from its cursor
		}
	}
}

// handleReplCheckpoint serves a bootstrap snapshot: the current frozen
// snapshot, at its epoch.
func (s *Server) handleReplCheckpoint(w http.ResponseWriter, gr *Graph, wal *storage.WAL) {
	horizon, durable := walRange(wal)
	live := gr.Live()
	if live == nil { // unreachable: a WAL implies live
		wire.WriteError(w, http.StatusInternalServerError, errors.New("replicated graph has no live facade"))
		return
	}
	snap := live.Snapshot()
	if snap.Epoch < horizon || snap.Epoch > durable {
		// Published and durable state are reconciling (a write is between
		// its log append and its publish); the follower just retries.
		wire.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("snapshot epoch %d outside shippable range [%d,%d]; retry", snap.Epoch, horizon, durable))
		return
	}
	w.Header().Set(wire.EpochHeader, strconv.FormatUint(snap.Epoch, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = storage.Write(w, snap.Frozen) // a tear after the headers fails the follower's decoder
}

// replicationWait returns the server's long-poll bound.
func (s *Server) replicationWait() time.Duration {
	if s.ReplicationWait > 0 {
		return s.ReplicationWait
	}
	return DefaultReplicationWait
}
