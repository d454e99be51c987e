package fleet

// Elastic membership: shards join and leave a running fleet over the
// /v1/fleet/shards admin routes, and the router migrates exactly the
// graphs whose ring ownership changes — ~1/N of them, the consistent-
// hashing guarantee — while reads keep flowing, byte-identical,
// throughout.
//
// The migration pipeline, per moved graph:
//
//  1. ADOPT — the destination leader starts tailing the graph directly
//     from the source leader (POST /v1/replication/{g}/adopt):
//     checkpoint bootstrap over the ordinary replication routes, then
//     contiguous WAL-tail applies into a local durable WAL. The source
//     keeps serving reads and writes; the adopter refuses direct writes
//     (503) until promoted.
//  2. CUTOVER — once every moved graph has caught up, the router swaps
//     the ring (one atomic pointer store: every new request now routes
//     to the new owner) and bumps each source shard's fence. From that
//     instant the source can acknowledge no further writes — any write
//     still in flight carries the old stamp and is answered 409, so
//     nothing can land on the source after the adopter stops tailing.
//  3. PROMOTE + DROP — after the adopter's applied epoch reaches the
//     source's durable epoch (everything ever acknowledged), the
//     destination graph is promoted writable and the source drops its
//     copy (WAL segments and checkpoints deleted).
//
// Byte-identity across the move is the same argument as replication's:
// the adopter applies the source's WAL records byte-for-byte in epoch
// order, and rendering is deterministic in the applied history — so at
// equal epochs the two copies render identical bodies AND ETags, and
// the cutover happens only at equal epochs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// migrateTimeout bounds each moved graph's catch-up waits. Generous:
// a bootstrap ships a whole checkpoint.
const migrateTimeout = 30 * time.Second

// move is one graph changing owners.
type move struct {
	graph    string
	src, dst *shard
}

// AddShard adds a new shard to the running fleet: fence its leader,
// rebuild the ring with the new member, and migrate the graphs whose
// ownership moved to it. Returns the names of the moved graphs.
// Idempotent on retry: re-adding an identical spec re-runs the
// migration, which skips graphs already moved.
func (rt *Router) AddShard(spec ShardSpec) ([]string, error) {
	if spec.ID == "" || spec.Leader == "" {
		return nil, &memberErr{status: http.StatusBadRequest,
			err: fmt.Errorf("fleet: shard needs an id and a leader URL")}
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()

	leaderURL := strings.TrimRight(spec.Leader, "/")
	rt.mu.Lock()
	if existing, dup := rt.shards[spec.ID]; dup {
		sameLeader := existing.leader.url == leaderURL
		rt.mu.Unlock()
		if !sameLeader {
			return nil, &memberErr{status: http.StatusConflict,
				err: fmt.Errorf("fleet: shard %q already exists with a different leader", spec.ID)}
		}
		// Same id, same leader: a retry of an add that may have been
		// interrupted mid-migration. Fall through to re-plan; already-
		// completed moves plan to zero.
	} else {
		sh := &shard{id: spec.ID, leader: &backend{url: leaderURL}}
		for _, f := range spec.Followers {
			sh.followers = append(sh.followers, &backend{url: strings.TrimRight(f, "/")})
		}
		rt.shards[spec.ID] = sh
		rt.mu.Unlock()
	}

	// The new leader must be fenceable before anything routes to it — a
	// migration onto a node that cannot persist a fence would leave the
	// moved graphs unprotected by exactly the mechanism the move relies on.
	rt.mu.RLock()
	sh := rt.shards[spec.ID]
	rt.mu.RUnlock()
	if sh.fence.Load() == 0 {
		f, err := rt.fenceExchange(leaderURL, 1)
		if err != nil {
			rt.mu.Lock()
			delete(rt.shards, spec.ID)
			rt.mu.Unlock()
			return nil, &memberErr{status: http.StatusBadGateway,
				err: fmt.Errorf("fleet: shard %q leader %s cannot fence: %w (run previewd with -mutable -wal-dir)", spec.ID, leaderURL, err)}
		}
		sh.fence.CompareAndSwap(0, f)
	}

	// Refresh placement so the plan works from current graph sets, then
	// plan: every graph whose owner changes under the new ring moves.
	rt.ProbeAll()
	newRing := rt.ringWith(spec.ID, "")
	moves := rt.planMoves(newRing)
	if err := rt.migrate(moves, newRing); err != nil {
		return movedNames(moves), &memberErr{status: http.StatusBadGateway, err: err}
	}
	rt.logf("fleet: shard %s joined; %d graphs migrated", spec.ID, len(moves))
	return movedNames(moves), nil
}

// RemoveShard drains a shard out of the running fleet: rebuild the ring
// without it, migrate every graph it owns to the new owners, then drop
// it from the topology. Returns the names of the moved graphs.
func (rt *Router) RemoveShard(id string) ([]string, error) {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()

	rt.mu.RLock()
	_, ok := rt.shards[id]
	n := len(rt.shards)
	rt.mu.RUnlock()
	if !ok {
		return nil, &memberErr{status: http.StatusNotFound, err: fmt.Errorf("fleet: no shard %q", id)}
	}
	if n == 1 {
		return nil, &memberErr{status: http.StatusConflict,
			err: fmt.Errorf("fleet: cannot remove %q: it is the last shard", id)}
	}

	rt.ProbeAll()
	newRing := rt.ringWith("", id)
	moves := rt.planMoves(newRing)
	if err := rt.migrate(moves, newRing); err != nil {
		return movedNames(moves), &memberErr{status: http.StatusBadGateway, err: err}
	}

	rt.mu.Lock()
	delete(rt.shards, id)
	rt.mu.Unlock()
	rt.logf("fleet: shard %s left; %d graphs migrated", id, len(moves))
	return movedNames(moves), nil
}

// ringWith builds the successor ring: current membership plus `add`
// (if non-empty) minus `remove` (if non-empty). Same vnodes as the
// original so unchanged shards hash to identical points.
func (rt *Router) ringWith(add, remove string) *Ring {
	ids := rt.ring.Load().Shards()
	if add != "" {
		ids = append(ids, add)
	}
	if remove != "" {
		kept := ids[:0]
		for _, id := range ids {
			if id != remove {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	return NewRing(ids, rt.vnodes)
}

// planMoves lists every hosted graph whose owner changes under newRing,
// sorted by name for deterministic logs and responses.
func (rt *Router) planMoves(newRing *Ring) []move {
	cur := rt.ring.Load()
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var moves []move
	for _, sh := range rt.shards {
		for _, g := range sh.graphs {
			if cur.Owner(g) != sh.id {
				continue // misprovisioned; probeShard already logs it
			}
			newOwner := newRing.Owner(g)
			if newOwner == sh.id {
				continue
			}
			dst := rt.shards[newOwner]
			if dst == nil {
				continue // unreachable: newRing only names registered shards
			}
			moves = append(moves, move{graph: g, src: sh, dst: dst})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].graph < moves[j].graph })
	return moves
}

// migrate runs the pipeline described at the top of this file for a set
// of moves, then installs newRing. Serialized by the caller (adminMu).
// On error the ring may already be swapped with some moves incomplete;
// the admin retries the same add/remove, which re-plans and finishes
// the remainder (adopt answers 409 for an in-flight adoption, treated
// as progress).
func (rt *Router) migrate(moves []move, newRing *Ring) error {
	// Phase 1: adopt + catch up, every graph, before any cutover. The
	// ring swap is all-or-nothing, so every moved graph must be ready.
	for _, mv := range moves {
		rt.mu.RLock()
		srcURL, dstURL := mv.src.leader.url, mv.dst.leader.url
		rt.mu.RUnlock()
		if err := rt.adoptGraph(mv.graph, srcURL, dstURL, mv.dst.fence.Load()); err != nil {
			return fmt.Errorf("adopting %q on shard %s: %w", mv.graph, mv.dst.id, err)
		}
		if err := rt.waitCaughtUp(mv.graph, srcURL, dstURL); err != nil {
			return fmt.Errorf("catching up %q on shard %s: %w", mv.graph, mv.dst.id, err)
		}
		rt.hook("adopted", mv.graph)
	}

	// Phase 2: cutover. Swap the ring first — from here every request
	// routes to the new owners — then bump each source shard's fence so
	// in-flight writes stamped with the old routing answer 409 at the
	// source instead of landing after the adopter stopped listening.
	rt.ring.Store(newRing)
	srcs := map[*shard]bool{}
	for _, mv := range moves {
		srcs[mv.src] = true
	}
	for sh := range srcs {
		if cur := sh.fence.Load(); cur != 0 {
			rt.mu.RLock()
			leaderURL := sh.leader.url
			rt.mu.RUnlock()
			f, err := rt.fenceExchange(leaderURL, cur+1)
			if err != nil {
				return fmt.Errorf("fencing shard %s at cutover: %w", sh.id, err)
			}
			sh.fence.Store(f)
		}
	}

	// Phase 3: final drain + promote + drop, per graph. The fence bump
	// guarantees the source's durable epoch is now frozen; once the
	// adopter has applied up to it, it holds the complete acknowledged
	// history and can lead.
	for _, mv := range moves {
		rt.mu.RLock()
		srcURL, dstURL := mv.src.leader.url, mv.dst.leader.url
		rt.mu.RUnlock()
		if err := rt.waitCaughtUp(mv.graph, srcURL, dstURL); err != nil {
			return fmt.Errorf("draining %q from shard %s: %w", mv.graph, mv.src.id, err)
		}
		rt.hook("cutover", mv.graph)
		if _, err := wire.Call(context.TODO(), rt.probe, http.MethodPost, dstURL+"/v1/replication/"+url.PathEscape(mv.graph)+"/promote", mv.dst.fence.Load(), nil, nil); err != nil {
			return fmt.Errorf("promoting %q on shard %s: %w", mv.graph, mv.dst.id, err)
		}
		if _, err := wire.Call(context.TODO(), rt.probe, http.MethodDelete, srcURL+"/v1/graphs/"+url.PathEscape(mv.graph), mv.src.fence.Load(), nil, nil); err != nil {
			return fmt.Errorf("dropping %q from shard %s: %w", mv.graph, mv.src.id, err)
		}
		rt.moveBookkeeping(mv)
		rt.hook("done", mv.graph)
	}
	return nil
}

// adoptGraph starts the destination leader tailing graph from the
// source leader, stamped with the destination shard's fence. An
// "already adopting/registered" 409 is a retried migration finding its
// own earlier progress — continue, don't fail.
func (rt *Router) adoptGraph(graph, srcURL, dstURL string, fence uint64) error {
	in := struct {
		Source string `json:"source"`
	}{Source: srcURL}
	_, err := wire.Call(context.TODO(), rt.probe, http.MethodPost, dstURL+"/v1/replication/"+url.PathEscape(graph)+"/adopt", fence, in, nil)
	var se *wire.StatusError
	if errors.As(err, &se) && se.Code == http.StatusConflict {
		return nil
	}
	return err
}

// waitCaughtUp blocks until dst's applied epoch for graph reaches src's
// durable epoch — the complete acknowledged history. Already-promoted
// destinations (status reports no applied epoch but a durable one at
// least the source's) pass too: that is a retried migration finding a
// finished move.
func (rt *Router) waitCaughtUp(graph, srcURL, dstURL string) error {
	deadline := time.Now().Add(migrateTimeout)
	for {
		srcSt, srcFound, srcErr := rt.replStatus(srcURL, graph)
		dstSt, dstFound, dstErr := rt.replStatus(dstURL, graph)
		if srcErr == nil && dstErr == nil && dstFound {
			if !srcFound {
				// The source no longer hosts the graph: a retried migration
				// already dropped it there. Whatever dst holds IS the graph.
				return nil
			}
			if dstSt.applied >= srcSt.durable || dstSt.durable >= srcSt.durable {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out (src durable %d, dst applied %d, src err %v, dst err %v)",
				srcSt.durable, dstSt.applied, srcErr, dstErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// moveBookkeeping updates the shard graph sets after a completed move
// so /v1/fleet and subsequent plans reflect it without waiting for the
// next probe sweep.
func (rt *Router) moveBookkeeping(mv move) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	kept := mv.src.graphs[:0]
	for _, g := range mv.src.graphs {
		if g != mv.graph {
			kept = append(kept, g)
		}
	}
	mv.src.graphs = kept
	mv.dst.graphs = append(mv.dst.graphs, mv.graph)
	sort.Strings(mv.dst.graphs)
}

func (rt *Router) hook(phase, graph string) {
	if rt.migrateHook != nil {
		rt.migrateHook(phase, graph)
	}
}

func movedNames(moves []move) []string {
	names := make([]string, 0, len(moves))
	for _, mv := range moves {
		names = append(names, mv.graph)
	}
	return names
}

// memberErr carries the HTTP status a membership failure maps to.
type memberErr struct {
	status int
	err    error
}

func (e *memberErr) Error() string { return e.err.Error() }
func (e *memberErr) Unwrap() error { return e.err }

// handleShardAdd answers POST /v1/fleet/shards: body {"id","leader",
// "followers"}; response lists the graphs the join migrated.
func (rt *Router) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var spec ShardSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&spec); err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad shard spec: %w", err))
		return
	}
	moved, err := rt.AddShard(spec)
	if err != nil {
		rt.writeMemberErr(w, err)
		return
	}
	wire.WriteJSON(w, map[string]any{"added": spec.ID, "moved": moved})
}

// handleShardRemove answers DELETE /v1/fleet/shards/{id}.
func (rt *Router) handleShardRemove(w http.ResponseWriter, r *http.Request, id string) {
	if id == "" || strings.Contains(id, "/") {
		wire.WriteError(w, http.StatusNotFound, fmt.Errorf("no such route %q", r.URL.Path))
		return
	}
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", "DELETE")
		wire.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	moved, err := rt.RemoveShard(id)
	if err != nil {
		rt.writeMemberErr(w, err)
		return
	}
	wire.WriteJSON(w, map[string]any{"removed": id, "moved": moved})
}

func (rt *Router) writeMemberErr(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	if me, ok := err.(*memberErr); ok {
		status = me.status
	}
	wire.WriteError(w, status, err)
}
