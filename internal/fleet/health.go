package fleet

// Health probing and leader failover.
//
// One probe per node per sweep: GET /v1/graphs returns each graph's
// name and published epoch, so the leader probe discovers the shard's
// graph set and its current epochs, and each follower probe yields
// per-graph replication lag by difference. "Caught up" is decidable
// from that single number because followers publish contiguous epochs
// (internal/service/follower.go): applied == leader epoch means the
// follower holds exactly the leader's history, not merely the same
// count of it.
//
// When the leader probe fails FailAfter consecutive sweeps, the router
// promotes the follower with the highest total published epoch (POST
// /v1/replication/promote) and re-points the shard at it. Promotion is
// lossless — the leader fsyncs every batch to its WAL before the epoch
// is acknowledged, and followers apply the same records in the same
// order — so the most-advanced follower holds a durable prefix of
// exactly what clients were acknowledged. Choosing the MAX-applied
// follower also keeps the survivors tailing cleanly: a survivor is at
// most at the promoted node's epoch, so its next poll through the
// router resumes without a divergence conflict.

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// nodeEpochs probes one node's /v1/graphs and returns name → published
// epoch. Graphs without an epoch field (static) map to 0.
func (rt *Router) nodeEpochs(base string) (map[string]uint64, error) {
	var doc struct {
		Graphs []struct {
			Name  string  `json:"name"`
			Epoch *uint64 `json:"epoch"`
		} `json:"graphs"`
	}
	if _, err := wire.Call(context.TODO(), rt.probe, http.MethodGet, base+"/v1/graphs", 0, nil, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(doc.Graphs))
	for _, g := range doc.Graphs {
		var e uint64
		if g.Epoch != nil {
			e = *g.Epoch
		}
		out[g.Name] = e
	}
	return out, nil
}

// ProbeAll runs one synchronous health sweep over every shard: leader
// liveness + graph discovery, follower lag, and — when a leader has
// been down FailAfter consecutive sweeps — failover. Tests drive this
// directly for determinism; cmd/previewrouter runs it on a ticker via
// Start.
func (rt *Router) ProbeAll() {
	rt.mu.RLock()
	shards := make([]*shard, 0, len(rt.shards))
	for _, sh := range rt.shards {
		shards = append(shards, sh)
	}
	rt.mu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].id < shards[j].id })
	for _, sh := range shards {
		rt.probeShard(sh)
	}
}

func (rt *Router) probeShard(sh *shard) {
	rt.mu.RLock()
	leaderURL := sh.leader.url
	followers := make([]*backend, len(sh.followers))
	copy(followers, sh.followers)
	rt.mu.RUnlock()

	leaderEpochs, leaderErr := rt.nodeEpochs(leaderURL)

	if leaderErr == nil && sh.fence.Load() == 0 {
		// Activate fencing on first contact: tell the leader to hold at
		// least fence 1 and adopt whatever it actually holds (a leader
		// that survived a previous router answers with its persisted,
		// possibly higher, fence — so a router restart recovers the
		// fleet's fencing state instead of resetting it). CAS because a
		// concurrent failover may have minted a fence meanwhile; the
		// higher one wins by staying.
		if f, err := rt.fenceExchange(leaderURL, 1); err == nil {
			if sh.fence.CompareAndSwap(0, f) {
				rt.logf("fleet: shard %s: fencing active at epoch %d (leader %s)", sh.id, f, leaderURL)
			}
		} else if sh.fenceWarned.CompareAndSwap(false, true) {
			rt.logf("fleet: shard %s: leader %s cannot fence (%v); writes to it go unstamped — run previewd with -wal-dir to enable fencing",
				sh.id, leaderURL, err)
		}
	}

	// Probe followers regardless of the leader's state: their published
	// epochs are exactly what failover needs when the leader is gone.
	results := make([]probeResult, len(followers))
	for i, f := range followers {
		e, err := rt.nodeEpochs(f.url)
		results[i] = probeResult{epochs: e, err: err}
	}

	rt.mu.Lock()
	if leaderErr != nil {
		sh.leader.fails++
		rt.logf("fleet: shard %s leader %s probe failed (%d consecutive): %v",
			sh.id, leaderURL, sh.leader.fails, leaderErr)
	} else {
		sh.leader.fails = 0
		names := make([]string, 0, len(leaderEpochs))
		for name := range leaderEpochs {
			names = append(names, name)
		}
		sort.Strings(names)
		if !slices.Equal(names, sh.graphs) {
			// Placement must match ring ownership: a graph provisioned on
			// a shard the ring maps elsewhere is unreachable through the
			// router (requests go to the owner, which 404s). Surface the
			// misconfiguration here, once per change, instead of leaving
			// only a bare 404 for the client.
			for _, g := range names {
				if owner := rt.ring.Load().Owner(g); owner != sh.id {
					rt.logf("fleet: shard %s serves graph %q but the ring assigns it to shard %s; requests for it will miss — provision it on its owning shard",
						sh.id, g, owner)
				}
			}
		}
		sh.graphs = names
	}
	for i, f := range followers {
		if results[i].err != nil {
			f.fails++
			f.lag = nil
			continue
		}
		f.fails = 0
		// Lag against the leader epochs from this same sweep. A follower
		// that reads AHEAD of the (possibly stale) leader probe is simply
		// caught up to everything that probe saw.
		lag := make(map[string]uint64, len(results[i].epochs))
		for g, fe := range results[i].epochs {
			le, ok := leaderEpochs[g]
			if !ok || leaderErr != nil {
				continue // unknown leader epoch → lag unknown → not a read candidate
			}
			if fe >= le {
				lag[g] = 0
			} else {
				lag[g] = le - fe
			}
		}
		f.lag = lag
	}
	needFailover := sh.leader.fails >= rt.failAfter && len(sh.followers) > 0
	rt.mu.Unlock()

	if needFailover {
		rt.failover(sh, followers, results)
	}
}

// failover promotes the reachable follower with the highest total
// published epoch and installs it as the shard's leader. The dead
// leader is dropped from the topology; if it ever comes back it must
// rejoin as a follower of the promoted node (its WAL FirstEpoch /
// checkpoint bootstrap handles that), it is never re-trusted as leader.
func (rt *Router) failover(sh *shard, followers []*backend, results []probeResult) {
	rt.mu.RLock()
	graphs := append([]string{}, sh.graphs...)
	rt.mu.RUnlock()
	drained := rt.drainFollowers(sh, followers, results, graphs)
	best := -1
	var bestTotal uint64
	for i := range followers {
		if drained[i] == nil {
			continue
		}
		var total uint64
		for _, e := range drained[i] {
			total += e
		}
		if best == -1 || total > bestTotal {
			best, bestTotal = i, total
		}
	}
	if best == -1 {
		rt.logf("fleet: shard %s leader is down and no follower is reachable; cannot fail over", sh.id)
		return
	}
	winner := followers[best]
	rt.syncWinner(sh, winner, followers, drained, best, graphs)
	// Mint the successor fence and carry it on the promote request: the
	// winner persists it BEFORE it starts accepting writes, so from its
	// first acknowledged write onward the old leader's fence is history —
	// if the deposed leader wakes up, every stamp it sees (its own
	// persisted fence, or a replayed old stamp) mismatches and it answers
	// 409 instead of acknowledging. A shard where fencing never activated
	// (volatile backends) promotes unstamped, exactly as before fencing
	// existed — a fence the winner cannot persist would be theater.
	var newFence uint64
	if cur := sh.fence.Load(); cur != 0 {
		newFence = cur + 1
	}
	if _, err := wire.Call(context.TODO(), rt.probe, http.MethodPost, winner.url+"/v1/replication/promote", newFence, nil, nil); err != nil {
		rt.logf("fleet: shard %s: promoting %s failed: %v", sh.id, winner.url, err)
		return
	}
	if newFence != 0 {
		sh.fence.Store(newFence)
	}

	rt.mu.Lock()
	oldLeader := sh.leader.url
	sh.leader = &backend{url: winner.url}
	kept := sh.followers[:0]
	for _, f := range sh.followers {
		if f != winner {
			kept = append(kept, f)
		}
	}
	sh.followers = kept
	rt.failovers++
	rt.mu.Unlock()
	rt.logf("fleet: shard %s: promoted %s (total epoch %d) to leader, replacing %s",
		sh.id, winner.url, bestTotal, oldLeader)
}

// probeResult is one node's answer to a sweep's /v1/graphs probe,
// shared between probeShard and failover.
type probeResult struct {
	epochs map[string]uint64
	err    error
}

// syncWinner brings the promotion candidate to the per-graph fleet
// maximum before it starts leading. With several graphs per shard no
// single follower is guaranteed to be the most advanced on ALL of them
// — each graph's WAL ships independently, so at the moment of the
// crash follower A can be ahead on one graph while follower B is ahead
// on another. Promoting any single node naively would strand the
// epochs it lacks on the other survivors, which is both a loss of
// (possibly acknowledged) writes and a divergence bomb: the survivor
// holding them would eventually trip the 409 conflict check and stop.
//
// Instead, for every graph where some survivor is ahead of the winner,
// the router temporarily forwards that graph's replication routes to
// the most-advanced survivor. The winner's own replication loop —
// which tails through the router — then pulls the missing records over
// the ordinary shipping path (followers serve the replication routes
// from their local WALs, byte-for-byte as shipped). Once the winner
// reports the target epoch on every graph, the override is lifted and
// promotion proceeds. Bounded: a graph that cannot catch up within the
// deadline is promoted as-is, with the abandonment logged.
func (rt *Router) syncWinner(sh *shard, winner *backend, followers []*backend, drained []map[string]uint64, best int, graphs []string) {
	needs := map[string]string{}   // graph → catch-up source URL
	targets := map[string]uint64{} // graph → epoch the winner must reach
	for _, g := range graphs {
		maxE, src := drained[best][g], ""
		for i, f := range followers {
			if i == best || drained[i] == nil {
				continue
			}
			if drained[i][g] > maxE {
				maxE, src = drained[i][g], f.url
			}
		}
		if src != "" {
			needs[g] = src
			targets[g] = maxE
		}
	}
	if len(needs) == 0 {
		return
	}
	rt.mu.Lock()
	sh.replSrc = needs
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		sh.replSrc = nil
		rt.mu.Unlock()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g, want := range targets {
		rt.logf("fleet: shard %s: syncing %s to epoch %d on %q from %s before promotion",
			sh.id, winner.url, want, g, needs[g])
		for {
			st, found, err := rt.replStatus(winner.url, g)
			if err == nil && found && st.epoch >= want {
				break
			}
			if time.Now().After(deadline) {
				rt.logf("fleet: shard %s: %s never reached epoch %d on %q; promoting anyway, later epochs are abandoned",
					sh.id, winner.url, want, g)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// drainFollowers waits for each reachable follower's apply pipeline to
// empty before reading its epochs for the promotion decision, and
// returns per-follower graph→epoch (nil for unreachable followers).
//
// The wait matters: a follower's applied epoch can still advance after
// the leader's death, because the tail of a WAL response it received
// before the crash is applied record by record. An epoch snapshot taken
// mid-drain can crown a node that another follower is actually ahead
// of — and a survivor ahead of its new leader either trips the 409
// divergence check or, worse, silently skips epochs the new leader
// minted differently. The replication loop is sequential — fetch,
// apply, fetch — so once a graph's status reports a failing poll
// (Error non-empty: the dead leader is unreachable), nothing buffered
// remains and that follower's epoch is frozen. Best-effort bounded: if
// a follower never settles within the deadline, its last reading is
// used and the stall is logged.
func (rt *Router) drainFollowers(sh *shard, followers []*backend, results []probeResult, graphs []string) []map[string]uint64 {
	out := make([]map[string]uint64, len(followers))
	deadline := time.Now().Add(5 * time.Second)
	for i, f := range followers {
		if results[i].err != nil {
			continue
		}
		for {
			epochs := make(map[string]uint64, len(graphs))
			settled := true
			reachable := true
			for _, g := range graphs {
				st, found, err := rt.replStatus(f.url, g)
				if err != nil {
					reachable = false
					break
				}
				if !found {
					// Not bootstrapped on this graph — it holds epoch 0 of
					// it, nothing more. That makes it a poor candidate, not
					// an unreachable one: disqualifying the whole follower
					// here would discard its (possibly fleet-leading) epochs
					// on every OTHER graph over one 404.
					epochs[g] = 0
					continue
				}
				epochs[g] = st.epoch
				if st.errMsg == "" {
					settled = false
				}
			}
			if !reachable {
				out[i] = nil
				break
			}
			out[i] = epochs
			if settled || time.Now().After(deadline) {
				if !settled {
					rt.logf("fleet: shard %s: follower %s never drained; promoting from its last reading", sh.id, f.url)
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return out
}

// replState is one graph's replication status as a node reports it.
// durable/applied matter to the migration pipeline (membership.go):
// cutover waits until the adopter has APPLIED everything the source
// holds DURABLY, which is exactly the acknowledged history.
type replState struct {
	epoch   uint64
	durable uint64
	applied uint64
	errMsg  string
}

// replStatus reads one graph's replication status from a node. A 404 —
// the node does not host the graph (yet) — is not an error: it returns
// found=false with a zero state, because "not bootstrapped" is an
// ordinary answer during adoption and right after a follower starts,
// not evidence the node is unreachable.
func (rt *Router) replStatus(base, graph string) (replState, bool, error) {
	var doc struct {
		Epoch        uint64  `json:"epoch"`
		DurableEpoch uint64  `json:"durable_epoch"`
		AppliedEpoch *uint64 `json:"applied_epoch"`
		Error        string  `json:"error"`
	}
	_, err := wire.Call(context.TODO(), rt.probe, http.MethodGet, base+"/v1/replication/"+url.PathEscape(graph)+"/status", 0, nil, &doc)
	var se *wire.StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return replState{}, false, nil
	}
	if err != nil {
		return replState{}, false, err
	}
	st := replState{epoch: doc.Epoch, durable: doc.DurableEpoch, errMsg: doc.Error}
	if doc.AppliedEpoch != nil {
		st.applied = *doc.AppliedEpoch
	}
	return st, true, nil
}

// Start launches the background probe loop at the given cadence; Stop
// ends it. Tests skip this and call ProbeAll directly.
func (rt *Router) Start(interval time.Duration) {
	rt.stop = make(chan struct{})
	rt.done = make(chan struct{})
	go func() {
		defer close(rt.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.ProbeAll()
			}
		}
	}()
}

func (rt *Router) Stop() {
	if rt.stop == nil {
		return
	}
	close(rt.stop)
	<-rt.done
}
