package service

// Node: one previewd process in any of its five roles (static, volatile
// mutable, durable leader, follower, empty migration target; see
// docs/ARCHITECTURE.md, "Node roles"). The Node owns what outlives a
// request: fencing, recovery, following, adoption, and the one
// checkpointer per checkpointed graph with the loop that drives them.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/wire"
)

// ErrNoGraphs is NewNode's answer to a configuration that would serve
// nothing: no graphs, no leader to follow, and not a durable node that
// can start empty as a migration target.
var ErrNoGraphs = errors.New("no graphs; pass at least one -graph name=path or -domain name (or -follow a leader, or -mutable -wal-dir to start empty as a migration target)")

// GraphSource is one graph named by a previewd -graph or -domain flag.
// NewNode calls Load only after the configuration validates.
type GraphSource struct {
	Name string
	Load func() (*graph.EntityGraph, error)
}

// NodeConfig configures one previewd process; each field carries the
// previewd flag named beside it.
type NodeConfig struct {
	Graphs  []GraphSource // -graph and -domain, in flag order
	Mutable bool          // -mutable

	// FollowerOptions holds the storage roots and replication settings:
	// Leader is -follow, CheckpointDir -checkpoint-dir, WALRoot -wal-dir.
	// Walk configures every graph's scores, and its Parallelism
	// (-parallelism) is the registry's worker count too. Wait, Backoff,
	// Client and OnApply apply to every follower the node runs, whether
	// it follows a whole leader or adopts one graph.
	FollowerOptions

	CheckpointInterval time.Duration // -checkpoint-interval
	Warm               bool          // -warm: compute every graph's scores and name order before serving
}

// validate rejects the flag combinations previewd refuses to start with,
// naming the offending flag.
func (c *NodeConfig) validate() error {
	for _, src := range c.Graphs {
		if err := checkGraphName(src.Name); err != nil {
			return fmt.Errorf("-graph: %w", err)
		}
	}
	follow := c.Leader != ""
	switch {
	case len(c.Graphs) == 0 && !follow && !(c.Mutable && c.WALRoot != ""):
		return ErrNoGraphs
	case c.CheckpointDir != "" && !c.Mutable && !follow:
		return errors.New("-checkpoint-dir requires -mutable or -follow (static graphs never change)")
	case c.WALRoot != "" && !c.Mutable && !follow:
		return errors.New("-wal-dir requires -mutable or -follow (static graphs never change)")
	case c.CheckpointDir != "" && c.CheckpointInterval <= 0:
		return fmt.Errorf("-checkpoint-interval must be positive, got %v", c.CheckpointInterval)
	case follow && len(c.Graphs) > 0:
		return errors.New("-follow replicates the leader's graphs; drop -graph/-domain")
	case follow && c.Mutable:
		return errors.New("-follow is incompatible with -mutable: a replica accepts writes only from the replication stream")
	case follow && (c.CheckpointDir == "") != (c.WALRoot == ""):
		return errors.New("a durable replica needs -checkpoint-dir and -wal-dir together (the checkpoint anchors the local WAL's epoch base)")
	case c.CheckpointDir != "" && c.WALRoot != "" && filepath.Clean(c.CheckpointDir) == filepath.Clean(c.WALRoot):
		return errors.New("-checkpoint-dir must differ from -wal-dir: the WAL root holds the node's fence manifest, which the checkpoint manifest of a graph named fence would overwrite")
	}
	return nil
}

// migrates reports whether the node takes part in fleet graph migration:
// a durable leader with checkpoints adopts, promotes and drops graphs at
// runtime, and re-registers the graphs it adopted when it restarts.
func (c *NodeConfig) migrates() bool {
	return c.Mutable && c.WALRoot != "" && c.CheckpointDir != ""
}

// Node is one running previewd role: a registry, the Server over it,
// and the role's background work.
type Node struct {
	cfg NodeConfig
	reg *Registry
	srv *Server

	// mu serializes adoption, promotion, drop and checkpoint passes, so a
	// pass never saves a graph that a drop is deleting.
	mu       sync.Mutex
	adopting map[string]*Follower             // graphs mid-adoption
	ckpts    map[string]*storage.Checkpointer // one per checkpointed graph

	stop context.CancelFunc // ends the checkpoint loop; nil without one
	done chan struct{}      // closed when the checkpoint loop has exited
}

// NewNode validates cfg, then builds its role: it arms fencing on a
// durable node, loads or recovers every flag-named graph (or follows
// every graph the leader ships), re-registers graphs adopted before a
// restart, computes every graph's scores and name order when cfg.Warm is
// set, and starts the checkpoint loop when cfg.CheckpointDir is set. The
// returned node is ready to serve through Server.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		reg:      NewRegistry(),
		adopting: make(map[string]*Follower),
		ckpts:    make(map[string]*storage.Checkpointer),
	}
	n.reg.Parallelism = cfg.Walk.Parallelism
	n.srv = New(n.reg)
	if cfg.migrates() {
		n.srv.node = n
	}
	if err := n.start(); err != nil {
		n.Close()
		return nil, err
	}
	if cfg.Warm {
		for _, name := range n.reg.Names() {
			if gr, ok := n.reg.Get(name); ok {
				start := time.Now()
				gr.Scores()
				gr.Entity().NameOrder()
				log.Printf("graph %q: scores and name order precomputed in %v", name, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if cfg.CheckpointDir != "" {
		ctx, stop := context.WithCancel(context.Background())
		n.stop, n.done = stop, make(chan struct{})
		go n.checkpointLoop(ctx)
	}
	return n, nil
}

// Server returns the node's HTTP handler. Set its exported limits
// before it serves.
func (n *Node) Server() *Server { return n.srv }

// Registry returns the node's graph registry.
func (n *Node) Registry() *Registry { return n.reg }

// Close stops the node's background work: the checkpoint loop and every
// follower, whole-node or adopting. It is not a drain: the listener,
// in-flight requests and the led graphs' WALs are left as they are.
func (n *Node) Close() {
	if n.stop != nil {
		n.stop()
		<-n.done
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range n.adopting {
		f.Stop()
	}
	for _, f := range n.reg.followers() {
		f.Stop()
	}
}

func (n *Node) start() error {
	if n.cfg.WALRoot != "" {
		// Arm write fencing before anything serves or tails: the fleet
		// router stamps every proxied write with this node's shard fence,
		// and a stale stamp is refused with 409 instead of acknowledged.
		// The fence persists next to the WALs, so a restart cannot forget
		// that the node was deposed.
		if err := n.reg.EnableFencing(n.cfg.WALRoot); err != nil {
			return err
		}
		if f, _ := n.reg.Fencing(); f > 0 {
			log.Printf("fencing: recovered epoch %d", f)
		}
	}
	if n.cfg.CheckpointDir != "" {
		if err := os.MkdirAll(n.cfg.CheckpointDir, 0o755); err != nil {
			return err
		}
	}
	if n.cfg.Leader != "" {
		return n.followAll()
	}
	for _, src := range n.cfg.Graphs {
		if err := n.load(src); err != nil {
			return err
		}
	}
	if n.cfg.migrates() {
		return n.recoverAdopted()
	}
	return nil
}

// load registers one flag-named graph in the node's role: live (see
// addLive) or static.
func (n *Node) load(src GraphSource) error {
	g, err := src.Load()
	if err != nil {
		return err
	}
	log.Printf("graph %q: %s", src.Name, g.Stats())
	if !n.cfg.Mutable {
		return n.reg.Add(src.Name, g)
	}
	rec, err := n.addLive(src.Name, g)
	if err != nil {
		return err
	}
	if snap := rec.Live.Snapshot(); snap.Epoch > 0 {
		log.Printf("graph %q: recovered to epoch %d (%s)", src.Name, snap.Epoch, snap.Stats)
	}
	return nil
}

// addLive opens graph name from its newest checkpoint (or from base at
// epoch 0) plus, on a durable node, the WAL tail; registers it, a durable
// one logging every batch to that WAL and shipping it to followers; and
// creates its checkpointer.
func (n *Node) addLive(name string, base *graph.EntityGraph) (*Recovery, error) {
	rec, err := openLive(base, 0, name, n.cfg.CheckpointDir, graphWALDir(n.cfg.WALRoot, name), n.cfg.Walk)
	if err != nil {
		return nil, err
	}
	if err := n.reg.AddLive(name, rec.Live, WithDurability(rec.WAL)); err != nil {
		rec.WAL.Close()
		return nil, err
	}
	if n.cfg.CheckpointDir != "" {
		n.ckpts[name] = storage.NewDurableCheckpointer(n.cfg.CheckpointDir, name, rec.WAL)
	}
	return rec, nil
}

// recoverAdopted re-registers the graphs this node adopted at runtime.
// No flag names them, so their checkpoint manifests are how a restart
// finds them, and the checkpoint each names is the base its WAL tail
// replays onto.
func (n *Node) recoverAdopted() error {
	names, err := storage.CheckpointedGraphs(n.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := n.reg.Get(name); ok || checkGraphName(name) != nil {
			continue
		}
		rec, err := n.addLive(name, nil)
		if err != nil {
			return fmt.Errorf("service: recovering adopted %q: %w", name, err)
		}
		log.Printf("graph %q: recovered adopted graph to epoch %d", name, rec.Live.Snapshot().Epoch)
	}
	return nil
}

// followAll starts a follower for every graph the leader can ship,
// skipping the ones it cannot (static or volatile graphs have no WAL).
func (n *Node) followAll() error {
	opts := n.cfg.FollowerOptions
	leader := strings.TrimRight(opts.Leader, "/")
	var listing struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if _, err := wire.Call(context.TODO(), opts.client(), http.MethodGet, leader+"/v1/graphs", 0, nil, &listing); err != nil {
		return fmt.Errorf("service: listing %s's graphs: %w", leader, err)
	}
	for _, g := range listing.Graphs {
		_, err := wire.Call(context.TODO(), opts.client(), http.MethodGet, leader+"/v1/replication/"+url.PathEscape(g.Name)+"/status", 0, nil, nil)
		// A 404 means the graph is not replicated; any other answer is
		// StartFollower's to judge. Only a leader that cannot be reached
		// stops here.
		var se *wire.StatusError
		switch {
		case errors.As(err, &se) && se.Code == http.StatusNotFound:
			continue
		case err != nil && se == nil:
			return err
		}
		f, err := StartFollower(n.reg, g.Name, opts)
		if err != nil {
			return err
		}
		log.Printf("graph %q: following %s from epoch %d", g.Name, leader, f.Applied())
		if f.ckpt != nil {
			n.ckpts[g.Name] = f.ckpt
		}
	}
	if len(n.reg.followers()) == 0 {
		return fmt.Errorf("leader %s ships no graphs; it needs -mutable -wal-dir", leader)
	}
	return nil
}

// adopt begins replicating graph name from the leader at source
// directly, not through a router: mid-migration the ring routes the
// graph to its old owner until cutover and to this node after it, and
// a direct tail is immune to the flip. The follower does not mark the
// registry as a replica, so the node keeps leading its other graphs;
// the graph's own follow status refuses direct writes until promote.
func (n *Node) adopt(name, source string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.adopting[name]; ok {
		return fmt.Errorf("service: already adopting %q", name)
	}
	opts := n.cfg.FollowerOptions
	opts.Leader = source
	f, err := startFollower(n.reg, name, opts, false)
	if err != nil {
		return err
	}
	n.adopting[name] = f
	n.ckpts[name] = f.ckpt
	log.Printf("graph %q: adopting from %s", name, source)
	return nil
}

// promote completes an adoption: the replication loop stops and the
// graph accepts writes here. The router has already fenced the source
// and waited for this node to reach the source's durable epoch.
func (n *Node) promote(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := n.adopting[name]
	if f == nil {
		return fmt.Errorf("service: not adopting %q", name)
	}
	delete(n.adopting, name)
	log.Printf("graph %q: promoted (migration cutover)", name)
	return f.promoteGraph()
}

// drop unregisters graph name, forgets its checkpointer and deletes its
// WAL directory and checkpoints: the source side of a completed
// migration, or the abort of an adoption in flight. Readers holding the
// graph finish their requests; new ones 404.
func (n *Node) drop(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := n.adopting[name]
	delete(n.adopting, name)
	delete(n.ckpts, name)
	gr, ok := n.reg.Remove(name) // an adoption registered its graph at start
	if !ok {
		return fmt.Errorf("service: no graph %q", name)
	}
	if f != nil {
		f.Stop()
	}
	gr.WAL().Close()
	if err := os.RemoveAll(graphWALDir(n.cfg.WALRoot, name)); err != nil {
		return err
	}
	if err := storage.RemoveCheckpoints(n.cfg.CheckpointDir, name); err != nil {
		return err
	}
	log.Printf("graph %q: dropped (migrated away)", name)
	return nil
}

func (n *Node) checkpointLoop(ctx context.Context) {
	defer close(n.done)
	tick := time.NewTicker(n.cfg.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			n.checkpoint()
		case <-ctx.Done():
			return
		}
	}
}

// checkpoint runs one pass: every checkpointed graph saves its latest
// snapshot. Save skips an epoch already on disk, so a quiet graph costs
// one comparison; a durable save also truncates the WAL segments the
// checkpoint makes redundant.
func (n *Node) checkpoint() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, name := range n.reg.Names() {
		ck := n.ckpts[name]
		gr, ok := n.reg.Get(name)
		if ck == nil || !ok {
			continue
		}
		snap := gr.Live().Snapshot()
		wrote, err := ck.Save(snap.Frozen, snap.Epoch)
		if err != nil {
			log.Printf("checkpoint %q: %v", name, err)
			continue
		}
		if wrote {
			log.Printf("checkpoint %q: epoch %d → %s", name, snap.Epoch, n.cfg.CheckpointDir)
		}
	}
}
