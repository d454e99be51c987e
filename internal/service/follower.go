package service

// Follower: the client half of WAL shipping. One Follower replicates one
// graph from a leader previewd into the local registry: it bootstraps
// from the leader's checkpoint route (or resumes from its own local
// checkpoint + WAL), then tails the leader's wal route and feeds every
// shipped record through dynamic.Live.ApplyShipped — the exact
// ApplyBatch/epoch-publication machinery local writes use, including the
// follower's own durability hook, so a follower is durable in its own
// right and a restart resumes from local state instead of re-shipping
// history.
//
// Failure handling is two-tier. Transport errors and damaged streams
// (ErrCorrupt from the frame decoder) drop the connection and re-request
// from the last applied epoch — nothing corrupt is ever applied, because
// a record is applied only after its checksum verified. Divergence — the
// leader says 409, or a shipped record fails to apply — is fatal: the
// nodes disagree about history and re-requesting cannot reconcile them,
// so the loop stops and reports through the status endpoint while reads
// keep serving the last good epoch.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/wire"
)

// FollowerOptions configures replication from one leader.
type FollowerOptions struct {
	// Leader is the leader previewd's base URL (e.g. http://leader:8080).
	Leader string
	// Client issues the HTTP requests; it must not impose an overall
	// request timeout shorter than Wait (long polls are held open that
	// long on purpose). Nil means a dedicated timeout-free client.
	Client *http.Client
	// Walk configures the follower's score refreshes; use the same
	// options as the leader for byte-identical walk scores.
	Walk score.WalkOptions
	// CheckpointDir and WALRoot make the follower durable: the bootstrap
	// snapshot is committed as a durable checkpoint and every shipped
	// batch is logged to WALRoot/<graph> before its epoch publishes, so a
	// restart resumes locally. Set both or neither — a local WAL without
	// a checkpoint has no epoch base to recover against.
	CheckpointDir string
	WALRoot       string
	// Wait is the long-poll duration requested from the leader
	// (0 = DefaultReplicationWait).
	Wait time.Duration
	// Backoff is the pause after a failed poll before re-syncing
	// (0 = 250ms).
	Backoff time.Duration
	// OnApply, when set, observes every applied epoch in order — test
	// instrumentation for the contiguity property.
	OnApply func(epoch uint64)
}

func (o *FollowerOptions) durable() bool { return o.WALRoot != "" }

func (o *FollowerOptions) wait() time.Duration {
	if o.Wait > 0 {
		return o.Wait
	}
	return DefaultReplicationWait
}

func (o *FollowerOptions) backoff() time.Duration {
	if o.Backoff > 0 {
		return o.Backoff
	}
	return 250 * time.Millisecond
}

func (o *FollowerOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{}
}

// errDiverged marks failures re-requesting cannot fix; the loop stops.
var errDiverged = errors.New("service: follower diverged from its leader")

// Follower replicates one graph; obtain one with StartFollower.
type Follower struct {
	reg  *Registry
	name string
	opts FollowerOptions

	gr   *Graph                // its Live is the facade, which a re-bootstrap replaces
	wal  *storage.WAL          // nil when volatile
	ckpt *storage.Checkpointer // shared with the node's checkpoint loop; nil when volatile

	cancel context.CancelFunc
	done   chan struct{}

	mu sync.Mutex
	st FollowStatus
}

// StartFollower bootstraps graph name from the leader (or resumes from
// local durable state), registers it in reg as a read replica, and
// starts the replication loop. The registry is marked as following the
// leader, so its write endpoints answer 503.
func StartFollower(reg *Registry, name string, opts FollowerOptions) (*Follower, error) {
	return startFollower(reg, name, opts, true)
}

// startFollower is StartFollower with the registry-wide leader mark
// optional: an adoption (Node.adopt) replicates ONE graph onto a node
// that leads its others, so it must not 503 the whole registry — the
// adopted graph's own FollowState is what gates its writes (see
// requireWritable).
func startFollower(reg *Registry, name string, opts FollowerOptions, markLeader bool) (*Follower, error) {
	if err := checkGraphName(name); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if opts.Leader == "" {
		return nil, errors.New("service: follower needs a leader URL")
	}
	opts.Leader = strings.TrimRight(opts.Leader, "/")
	if (opts.CheckpointDir == "") != (opts.WALRoot == "") {
		return nil, errors.New("service: follower durability needs CheckpointDir and WALRoot together")
	}
	f := &Follower{reg: reg, name: name, opts: opts}
	if err := f.boot(context.Background()); err != nil {
		return nil, fmt.Errorf("service: following %q from %s: %w", name, opts.Leader, err)
	}
	if markLeader {
		reg.addFollower(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel, f.done = cancel, make(chan struct{})
	go f.run(ctx)
	return f, nil
}

// Stop halts the replication loop and closes the local WAL. Reads keep
// serving the last applied epoch until the process exits.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
	f.wal.Close()
}

// Promote turns a durable follower into the leader for its graph: the
// replication loop stops (nothing shipped can land after this returns),
// the follow status clears so the replication status doc reports
// "leader", and the registry's write endpoints re-open. The local WAL
// stays open — it was already logging every shipped batch before its
// epoch published, so the first locally accepted write appends to it at
// the next epoch exactly as it would have on the old leader, and the
// node can ship its own WAL to the surviving followers.
//
// Safety rests on two invariants the replication layer already
// enforces: a record is fsynced before its epoch publishes (so this
// node holds only epochs the dead leader durably published), and every
// applied epoch is its predecessor + 1 (so the held prefix is
// contiguous — no phantom or gapped epochs). A volatile follower has no
// WAL to lead from and refuses.
//
// Promotion itself does not depose the old leader — the fencing epoch
// does: the fleet router carries the shard's bumped fence on the
// promote request, the server installs it before calling this (see
// handlePromote), and from then on the old leader's persisted fence no
// longer matches any stamp the router issues, so a revived old leader
// answers 409 to every write and must rejoin as a fresh follower.
func (f *Follower) Promote() error {
	if err := f.promoteGraph(); err != nil {
		return err
	}
	f.reg.clearLeader()
	return nil
}

// promoteGraph is the graph-scoped half of Promote: stop the
// replication loop and clear this graph's follow status, leaving the
// registry-wide leader mark alone. Node.promote uses it to cut one
// migrated graph over on a node that was never a whole-registry
// follower.
func (f *Follower) promoteGraph() error {
	if f.wal == nil {
		return errors.New("service: cannot promote a volatile follower; it has no WAL to lead from")
	}
	f.cancel()
	<-f.done
	f.gr.follow.Store(nil)
	return nil
}

// Name returns the replicated graph's name.
func (f *Follower) Name() string { return f.name }

// Applied returns the last shipped epoch applied and published: the
// epoch the follower's readers see. The facade publishes an epoch just
// before the registry's view does, so its own epoch can run ahead of what
// a reader is served.
func (f *Follower) Applied() uint64 { return f.gr.view().Epoch }

// Status returns a copy of the replication-loop status.
func (f *Follower) Status() FollowStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// WaitCaughtUp blocks until the follower has applied at least epoch, the
// timeout passes, or the loop fails fatally.
func (f *Follower) WaitCaughtUp(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if f.Applied() >= epoch {
			return nil
		}
		select {
		case <-f.done:
			return fmt.Errorf("service: follower %q stopped at epoch %d: %s", f.name, f.Applied(), f.Status().Err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: follower %q at epoch %d, want %d after %v (status %+v)",
				f.name, f.Applied(), epoch, timeout, f.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// boot opens the graph from local durable state when there is any, else
// from the leader's checkpoint route, and registers it.
func (f *Follower) boot(ctx context.Context) error {
	walDir := graphWALDir(f.opts.WALRoot, f.name)
	rec, err := openLive(nil, 0, f.name, f.opts.CheckpointDir, walDir, f.opts.Walk)
	if errors.Is(err, errNoState) {
		g, e, ferr := f.fetchBootstrap(ctx)
		if ferr != nil {
			return ferr
		}
		f.bumpBootstraps()
		if f.opts.durable() {
			// Commit the bootstrap before serving it: a restart must know
			// which epoch the local WAL tail continues from.
			if _, err := storage.NewDurableCheckpointer(f.opts.CheckpointDir, f.name, nil).Save(g, e); err != nil {
				return fmt.Errorf("committing bootstrap checkpoint: %w", err)
			}
		}
		// The checkpoint just committed holds g: open from g, not from disk.
		rec, err = openLive(g, e, f.name, "", walDir, f.opts.Walk)
	}
	if err != nil {
		return err
	}
	f.wal = rec.WAL
	if f.opts.durable() {
		f.ckpt = storage.NewDurableCheckpointer(f.opts.CheckpointDir, f.name, f.wal)
	}
	if err := f.reg.AddLive(f.name, rec.Live, WithDurability(f.wal)); err != nil {
		f.wal.Close()
		return err
	}
	gr, _ := f.reg.Get(f.name)
	f.gr = gr
	f.publishStatus(func(st *FollowStatus) { st.AppliedEpoch = f.Applied() })
	return nil
}

// run is the replication loop: poll, apply, repeat; back off on
// retryable failures, stop on divergence.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	for {
		err := f.poll(ctx)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			f.publishStatus(func(st *FollowStatus) { st.Err = "" })
			continue
		case errors.Is(err, errDiverged), errors.Is(err, dynamic.ErrWedged):
			f.publishStatus(func(st *FollowStatus) { st.Err = err.Error() })
			return
		default:
			// Transport failure or damaged stream: re-sync from the last
			// applied epoch after a pause.
			f.publishStatus(func(st *FollowStatus) { st.Resyncs++; st.Err = err.Error() })
			select {
			case <-time.After(f.opts.backoff()):
			case <-ctx.Done():
				return
			}
		}
	}
}

// poll runs one wal-route request and applies everything it ships.
func (f *Follower) poll(ctx context.Context) error {
	applied := f.gr.Live().Snapshot().Epoch
	u := fmt.Sprintf("%s/v1/replication/%s/wal?from=%d&wait=%s",
		f.opts.Leader, url.PathEscape(f.name), applied, f.opts.wait())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if e, err := strconv.ParseUint(resp.Header.Get(wire.EpochHeader), 10, 64); err == nil {
		f.publishStatus(func(st *FollowStatus) { st.LeaderEpoch = e })
	}
	// Followers that tail through a fleet router see the shard's fence
	// stamped on every forwarded replication response; adopting it keeps
	// their persisted fence current, so a follower promoted later starts
	// from a fence the router's next mint strictly exceeds.
	if fence, _, err := wire.Fence(resp.Header); err == nil {
		f.reg.adoptFence(fence)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the stream below
	case http.StatusGone:
		// Behind the truncation horizon: tailing cannot catch up any more.
		return f.rebootstrap(ctx)
	case http.StatusConflict:
		return fmt.Errorf("%w: %v", errDiverged, wire.ReadError(resp))
	default:
		return fmt.Errorf("wal poll: %w", wire.ReadError(resp))
	}
	sr := storage.NewWALStreamReader(resp.Body)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Damaged or torn stream: nothing from it was applied past the
			// last verified record; re-sync from there.
			return fmt.Errorf("shipped stream from epoch %d: %w", applied, err)
		}
		if rec.Epoch <= f.gr.Live().Snapshot().Epoch {
			continue // duplicate delivery after a re-sync; already applied
		}
		if err := f.applyRecord(rec); err != nil {
			return err
		}
	}
}

// applyRecord feeds one verified shipped record through the same
// machinery as a local write and publishes its epoch.
func (f *Follower) applyRecord(rec storage.WALRecord) error {
	snap, err := f.gr.Live().ApplyShipped(rec.Epoch, rec.Kind, rec.Payload, func(g *dynamic.Graph) error {
		return applyLogged(g, rec.Kind, rec.Payload)
	})
	if err != nil {
		if errors.Is(err, dynamic.ErrWedged) {
			return err
		}
		// A checksum-valid record that fails to apply means the nodes
		// disagree about history (wrong leader, reset leader): fatal.
		return fmt.Errorf("%w: applying shipped epoch %d: %v", errDiverged, rec.Epoch, err)
	}
	f.gr.publish(snap)
	f.publishStatus(func(st *FollowStatus) { st.AppliedEpoch = snap.Epoch })
	if f.opts.OnApply != nil {
		f.opts.OnApply(snap.Epoch)
	}
	return nil
}

// rebootstrap refetches a whole checkpoint and swaps the facade — the
// slow path for a follower that fell behind the leader's truncation
// horizon. The local WAL is truncated to the new base (every dropped
// record is covered by the fetched snapshot) and re-based so shipped
// appends continue cleanly.
func (f *Follower) rebootstrap(ctx context.Context) error {
	g, e, err := f.fetchBootstrap(ctx)
	if err != nil {
		return err
	}
	if applied := f.gr.Live().Snapshot().Epoch; e < applied {
		return fmt.Errorf("%w: leader's bootstrap epoch %d is behind our applied epoch %d", errDiverged, e, applied)
	}
	if f.opts.durable() {
		// The shared checkpointer (also driven by the node's checkpoint
		// loop) serializes this save against periodic ones — two racing
		// instances could otherwise delete each other's snapshots out from
		// under the manifest.
		if _, err := f.ckpt.Save(g, e); err != nil {
			return fmt.Errorf("committing re-bootstrap checkpoint: %w", err)
		}
		if err := alignWAL(f.wal, e); err != nil {
			return err
		}
	}
	// The local WAL is already open: the facade opens volatile and is
	// installed with it.
	rec, err := openLive(g, e, f.name, "", "", f.opts.Walk)
	if err != nil {
		return err
	}
	f.gr.install(rec.Live, f.wal)
	f.bumpBootstraps()
	f.publishStatus(func(st *FollowStatus) { st.AppliedEpoch = e })
	return nil
}

// fetchBootstrap downloads and validates the leader's checkpoint.
func (f *Follower) fetchBootstrap(ctx context.Context) (*graph.EntityGraph, uint64, error) {
	u := f.opts.Leader + "/v1/replication/" + url.PathEscape(f.name) + "/checkpoint"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.opts.client().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("bootstrap: %w", wire.ReadError(resp))
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(wire.EpochHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bootstrap: bad %s header: %v", wire.EpochHeader, err)
	}
	g, err := storage.Read(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("bootstrap snapshot: %w", err)
	}
	return g, epoch, nil
}

func (f *Follower) bumpBootstraps() {
	f.publishStatus(func(st *FollowStatus) { st.Bootstraps++ })
}

// publishStatus mutates the status under the lock and republishes a copy
// for the status endpoint.
func (f *Follower) publishStatus(mut func(*FollowStatus)) {
	f.mu.Lock()
	mut(&f.st)
	cp := f.st
	f.mu.Unlock()
	if f.gr != nil {
		f.gr.follow.Store(&cp)
	}
}
