// Live graphs: a concurrency-safe facade over Graph that serializes
// mutation batches and publishes immutable, epoch-versioned snapshots for
// readers. Writers take a mutex; readers never block — they load the
// current Snapshot through an atomic pointer and keep using it for the
// whole request, so an in-flight preview sees one consistent (graph,
// scores, epoch) triple no matter how many batches land meanwhile.
//
// Each successful batch bumps the epoch by one. Its publication folds the
// batch into the next immutable entity graph (Graph.Freeze: graph.Derive
// from the previous snapshot's graph, and one histogram move per tuple
// whose neighbor run grew) and refreshes the scores through the
// incremental path (Graph.Scores: a re-sum of each moved histogram's
// group sizes, an O(K²)-per-iteration walk solve, and the O(K + N)
// assembly every score set is made by) instead of score.Compute's
// O(|Vd| + |Ed|) rescan. The scores are score.Compute's for the published
// graph, bit for bit, so a snapshot's scores depend on its state, not on
// the batches or the restarts that reached it. The graph — needed to
// materialize tuples, and what buys readers lock-free access to a graph
// that can never change underneath them — is the Graph's only copy of its
// edges, names and entity types, and its only count of them: statistics,
// coverage and relationship counts are read off it. The first snapshot's
// (NewLiveAt's) is the graph the Graph was opened on, adopted as it is
// (FromEntityGraph: it shares the source's arrays and never writes them),
// or one batch derived on top of it when a WAL tail was replayed first.
// Every later one is derived from its predecessor: no validation, hashing
// or map building of the graph, only word copies of the adjacency arrays
// and of the name order, O(|Vd| + distinct |Ed|), and O(batch log batch)
// for the rest. The graph is whole when it is published: Derive merges
// the batch's new names into the previous graph's name order, counts its
// edges and builds the schema graph, and leaves only the edge list to its
// first reader. A batch that adds nothing publishes the previous
// snapshot's graph again. A snapshot keeps no pointer to its predecessor;
// it shares only the predecessor's append-only tables, so an old
// snapshot's own arrays are freed as soon as its last reader lets go.
// Each snapshot also copies the graph's change stamps (O(types)) for
// Snapshot.DirtySince.
package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
)

// ErrWedged is returned by writes to a Live whose durability hook has
// failed. The in-memory graph and the log may then disagree, so no
// further mutation is allowed: the last published snapshot keeps
// serving reads, and a restart recovers exactly the durable state.
var ErrWedged = errors.New("dynamic: live graph wedged by an earlier durability failure; restart to recover")

// A DurabilityHook persists one applied batch before its epoch is
// published. It receives the epoch the batch will create, a
// caller-defined kind tag, and the batch's replayable payload; returning
// an error aborts publication and wedges the Live (see ErrWedged). The
// hook runs under the writer lock, so calls are serialized and epochs
// arrive contiguously.
type DurabilityHook func(epoch uint64, kind byte, payload []byte) error

// Snapshot is one published epoch of a live graph: the frozen entity
// graph and its score set, taken at the same instant. Snapshots are
// immutable; readers share them freely.
//
// The entity graph is a multigraph: Frozen's statistics, edge counts and
// edge list, and the coverage measures count parallel duplicate edges —
// a client that retries an already-applied batch inflates them — while
// neighbor runs and the entropy measure's value sets hold each neighbor
// once. Clients wanting exactly-once semantics should check the stats
// epoch before retrying a batch whose response was lost.
type Snapshot struct {
	// Epoch counts successful mutation batches since the graph was made
	// live. The initial load is epoch 0.
	Epoch uint64
	// Scores is the incrementally refreshed score set.
	Scores *score.Set
	// Frozen is the immutable entity graph for tuple materialization.
	Frozen *graph.EntityGraph
	// Dirty lists (sorted) the entity types whose measure inputs moved in
	// the batch that produced this epoch, DirtySince(Epoch-1); nil when
	// nothing moved or on a structural publication.
	Dirty []graph.TypeID
	// Structural marks a publication that is not a single incremental step
	// from its predecessor: a Live's first publication (the initial load,
	// recovery, resync) or a batch that changed the schema (new type or
	// relationship type). Consumers carrying state across epochs must
	// rebuild from scratch at one.
	Structural bool

	// moved and structuralAt copy the graph's change stamps at
	// publication (see Graph); DirtySince reads them.
	moved        []uint64
	structuralAt uint64
}

// DirtySince reports the entity types (sorted) whose measure inputs some
// batch in (from, Epoch] moved: the union of those batches' Dirty sets,
// however many there were. structural is true, and dirty nil, when a
// publication in that range was structural or from precedes the Live's
// first publication: no delta spans it.
func (s *Snapshot) DirtySince(from uint64) (dirty []graph.TypeID, structural bool) {
	if s.structuralAt > from {
		return nil, true
	}
	for t, e := range s.moved {
		if e > from {
			dirty = append(dirty, graph.TypeID(t))
		}
	}
	return dirty, false
}

// Live wraps a Graph for concurrent serving: Apply serializes writers and
// publishes a fresh Snapshot per batch; Snapshot hands readers the
// current one without blocking.
type Live struct {
	opts score.WalkOptions

	mu     sync.Mutex // serializes mutation + publication
	g      *Graph
	hook   DurabilityHook // nil = volatile
	wedged error          // sticky durability failure; see ErrWedged

	snap atomic.Pointer[Snapshot]
}

// NewLive publishes g's current state as epoch 0 and returns the facade.
// The caller must not touch g directly afterwards — all further mutation
// goes through Apply.
func NewLive(g *Graph, opts score.WalkOptions) (*Live, error) {
	return NewLiveAt(g, opts, 0)
}

// NewLiveAt publishes g's current state at the given epoch. Recovery
// uses it to resume exactly where the durable state ends: g is the
// checkpoint graph with the WAL tail already replayed, and epoch is the
// last recovered epoch, so the next batch publishes epoch+1 and the
// epoch sequence has no seam across the restart. Its publication solves
// the scores once, for that state.
func NewLiveAt(g *Graph, opts score.WalkOptions, epoch uint64) (*Live, error) {
	l := &Live{opts: opts, g: g}
	// The initial publication is structural by definition: nothing
	// precedes it to be incremental from.
	g.structuralAt = epoch
	if err := l.publishLocked(epoch); err != nil {
		return nil, err
	}
	return l, nil
}

// SetDurability installs the hook that persists every batch before its
// epoch is published. Install it before the first write: batches applied
// earlier were not logged and will not survive a crash. Passing nil
// removes the hook.
func (l *Live) SetDurability(hook DurabilityHook) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = hook
}

// Snapshot returns the current published snapshot. It never blocks, not
// even against an in-progress Apply.
func (l *Live) Snapshot() *Snapshot { return l.snap.Load() }

// Apply runs one mutation batch under the writer lock and, if it
// succeeds, refreshes the scores incrementally and publishes the next
// epoch. mutate must validate before mutating: a failed batch publishes
// no epoch, so any mutation it already performed would silently leak into
// the next successful epoch — and a mutation that breaks the data model
// itself (say, an entity declared with no type) is worse still: it is
// never rolled back, so every later publication fails until restart. The
// HTTP write routes uphold the contract by construction; new callers must
// too. Concurrent Apply calls serialize; readers are never blocked.
//
// Apply is the volatile write path: it carries no replayable payload, so
// it refuses to run on a Live with a durability hook installed — a batch
// applied but never logged would silently vanish on crash. Durable
// callers use ApplyBatch.
func (l *Live) Apply(mutate func(*Graph) error) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hook != nil {
		return nil, errors.New("dynamic: Apply on a durable live graph; use ApplyBatch with a replayable payload")
	}
	return l.applyLocked(0, nil, mutate)
}

// ApplyBatch is Apply for durable live graphs: kind and payload are the
// batch's replayable form, handed to the durability hook (with the epoch
// the batch creates) after the mutation succeeds and before the epoch is
// published. Ordering is the durability contract: when ApplyBatch
// returns, an acknowledged batch is on stable storage; when the hook
// fails, the epoch is never published — readers keep the previous
// snapshot — and the Live wedges (ErrWedged) because the in-memory graph
// already contains a mutation the log does not.
//
// Without a hook installed, ApplyBatch behaves exactly like Apply.
func (l *Live) ApplyBatch(kind byte, payload []byte, mutate func(*Graph) error) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyLocked(kind, payload, mutate)
}

// ApplyShipped applies one replicated batch at the epoch its leader
// assigned: the follower half of WAL shipping. It is ApplyBatch with the
// epoch checked instead of chosen — the shipped record must create
// exactly the next epoch (a gap means records were lost in transit; a
// stale epoch means the batch is already applied), and everything else
// runs through the same machinery as a local write: the mutation under
// the writer lock, the durability hook (the follower's own WAL, so a
// replica is durable in its own right), and the epoch publication. A
// follower that only ever applies shipped batches therefore replays the
// leader's exact state sequence, which is what makes its reads
// byte-identical.
func (l *Live) ApplyShipped(epoch uint64, kind byte, payload []byte, mutate func(*Graph) error) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur := l.snap.Load().Epoch; epoch != cur+1 {
		return nil, fmt.Errorf("dynamic: shipped batch carries epoch %d, want %d", epoch, cur+1)
	}
	return l.applyLocked(kind, payload, mutate)
}

func (l *Live) applyLocked(kind byte, payload []byte, mutate func(*Graph) error) (*Snapshot, error) {
	if l.wedged != nil {
		return nil, fmt.Errorf("%w: %v", ErrWedged, l.wedged)
	}
	epoch := l.snap.Load().Epoch + 1
	l.g.epoch = epoch // what mutate moves is stamped with the epoch it publishes
	if err := mutate(l.g); err != nil {
		return nil, err
	}
	if l.hook != nil {
		if err := l.hook(epoch, kind, payload); err != nil {
			l.wedged = err
			return nil, fmt.Errorf("dynamic: logging batch for epoch %d: %w", epoch, err)
		}
	}
	if err := l.publishLocked(epoch); err != nil {
		if l.hook != nil {
			// The batch is already in the log; failing to publish it leaves
			// log, memory and published epoch mutually inconsistent (and the
			// logged batch would materialize on restart despite this error
			// response) — same disagreement as a hook failure, same remedy.
			l.wedged = err
		}
		return nil, err
	}
	return l.snap.Load(), nil
}

// publishLocked folds the open batch into the next graph (Graph.Freeze),
// refreshes the scores through the incremental path, and swaps in the new
// snapshot with a copy of the graph's change stamps (O(types)). Every
// publication goes through here: NewLiveAt's, and each batch of Apply,
// ApplyBatch and ApplyShipped. Callers hold l.mu.
func (l *Live) publishLocked(epoch uint64) error {
	frozen, err := l.g.Freeze()
	if err != nil {
		return fmt.Errorf("dynamic: freezing graph: %w", err)
	}
	scores, err := l.g.Scores(l.opts)
	if err != nil {
		return fmt.Errorf("dynamic: refreshing scores: %w", err)
	}
	snap := &Snapshot{
		Epoch:        epoch,
		Scores:       scores,
		Frozen:       frozen,
		Structural:   l.g.structuralAt == epoch,
		moved:        slices.Clone(l.g.moved),
		structuralAt: l.g.structuralAt,
	}
	if !snap.Structural { // a batch, so epoch >= 1
		snap.Dirty, _ = snap.DirtySince(epoch - 1)
	}
	l.snap.Store(snap)
	return nil
}
