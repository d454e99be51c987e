package service

// Durability: recovery of live graphs from checkpoint + write-ahead log.
//
// The write handlers log each batch's raw request body into the WAL
// (tagged with a kind byte naming the route) before the epoch is
// published. Replay therefore runs the exact bytes through the exact
// code path that applied them originally — applyEdgeBatch for JSON edge
// batches, triple.Decode for native batches — against a graph in the
// same pre-batch state, so recovery reconstructs the state the server
// acknowledged before the crash. A live graph's scores are a function
// of its state, so recovery solves them once, at its last epoch, and a
// recovered node serves the bytes the crashed one served.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/score"
	"github.com/uta-db/previewtables/internal/storage"
	"github.com/uta-db/previewtables/internal/triple"
)

// WAL record kinds: which write route produced a batch, and therefore
// how its payload replays.
const (
	batchKindEdges   byte = 1 // POST /edges: JSON edgesRequest body
	batchKindTriples byte = 2 // POST /triples: native triple-format text
)

// applyLogged applies one logged batch body to g — the shared replay
// path of WAL recovery and follower replication, running the exact bytes
// through the exact code that applied them originally. Logged batches
// were fully validated before they were logged, so a failure here means
// the durable state is inconsistent (say, a WAL paired with the wrong
// checkpoint, or a stream from a different graph) — the caller must stop
// rather than guess.
func applyLogged(g *dynamic.Graph, kind byte, payload []byte) error {
	switch kind {
	case batchKindEdges:
		var req edgesRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return fmt.Errorf("decoding edge batch: %v", err)
		}
		return applyEdgeBatch(g, req.Edges)
	case batchKindTriples:
		return triple.Decode(bytes.NewReader(payload), liveSink{g})
	default:
		return fmt.Errorf("unknown batch kind %d", kind)
	}
}

// Recovery is an opened live graph: the resumed facade and its WAL,
// ready for further appends (nil when the graph is volatile). Register
// the pieces together:
//
//	reg.AddLive(name, rec.Live, WithDurability(rec.WAL))
type Recovery struct {
	Live *dynamic.Live
	WAL  *storage.WAL
	// Origin is always nil; it is kept only so callers that pass it to
	// WithOrigin compile.
	//
	// Deprecated: do not read it. It goes with WithOrigin, in ROADMAP
	// item 2.
	Origin *graph.EntityGraph
	// OriginEpoch is always 0; it is kept only so callers that pass it to
	// WithOrigin compile.
	//
	// Deprecated: do not read it. It goes with WithOrigin, in ROADMAP
	// item 2.
	OriginEpoch uint64
}

// errNoState is openLive's answer when there is nothing to open: no base
// graph and no checkpoint. A follower then bootstraps from its leader.
var errNoState = errors.New("service: no base graph and no checkpoint")

// RecoverLive rebuilds one live graph from its persisted state and
// returns the facade resumed at the exact recovered epoch, plus the
// opened WAL ready for further appends.
//
//   - The newest checkpoint under ckptDir (written by
//     storage.NewDurableCheckpointer) is loaded when one exists;
//     otherwise recovery starts from base at epoch 0. ckptDir may be ""
//     when checkpointing is not configured.
//   - The WAL under walDir is opened, which reads it once, and the tail
//     its scan accepted is replayed on top: records at or below the
//     checkpoint epoch are skipped (the snapshot already contains them),
//     the rest must continue the epoch sequence without a gap. A torn
//     final record — a crash mid-append — is an unacknowledged batch and
//     is discarded; OpenWAL truncates it so new appends land after the
//     last intact record. walDir "" opens the graph volatile: nothing is
//     replayed and Recovery.WAL is nil.
//
// The recovered facade serves the same previews, byte for byte, that the
// pre-crash process acknowledged at that epoch.
func RecoverLive(base *graph.EntityGraph, name, ckptDir, walDir string, opts score.WalkOptions) (*Recovery, error) {
	return openLive(base, 0, name, ckptDir, walDir, opts)
}

// openLive is the one way a live graph starts — a node's leaders,
// volatile and durable, its re-registered adoptions, and a follower's
// boots and re-bootstraps: RecoverLive with the base graph pinned to a
// known epoch (a follower's base is the bootstrap snapshot it fetched
// from its leader, which is rarely epoch 0). A checkpoint at least as
// new as the base wins; with neither it returns errNoState.
func openLive(base *graph.EntityGraph, baseEpoch uint64, name, ckptDir, walDir string, opts score.WalkOptions) (*Recovery, error) {
	g, epoch := base, baseEpoch
	if ckptDir != "" {
		snap, e, ok, err := storage.LoadLatestCheckpoint(ckptDir, name)
		if err != nil {
			return nil, fmt.Errorf("service: recovering %q: %w", name, err)
		}
		if ok && e >= epoch {
			g, epoch = snap, e
		}
	}
	if g == nil {
		return nil, errNoState
	}
	dg, err := dynamic.FromEntityGraph(g)
	if err != nil {
		return nil, fmt.Errorf("service: recovering %q: %w", name, err)
	}
	var wal *storage.WAL
	if walDir != "" {
		var recs []storage.WALRecord
		if wal, recs, err = storage.OpenWAL(walDir, storage.WALOptions{}); err != nil {
			return nil, fmt.Errorf("service: recovering %q: opening WAL: %w", name, err)
		}
		if epoch, err = replayTail(dg, epoch, recs); err == nil {
			err = alignWAL(wal, epoch)
		}
		if err != nil {
			wal.Close()
			return nil, fmt.Errorf("service: recovering %q: %w", name, err)
		}
	}
	live, err := dynamic.NewLiveAt(dg, opts, epoch)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("service: recovering %q: %w", name, err)
	}
	return &Recovery{Live: live, WAL: wal}, nil
}

// graphWALDir is graph name's WAL directory under root, or "" (a
// volatile graph) when root is "".
func graphWALDir(root, name string) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, name)
}

// replayTail applies the records that continue epoch to dg, and returns
// the epoch it reached. It solves no scores: NewLiveAt solves them once,
// for the state it reached.
func replayTail(dg *dynamic.Graph, epoch uint64, recs []storage.WALRecord) (uint64, error) {
	for _, rec := range recs {
		if rec.Epoch <= epoch {
			continue // already in the checkpoint
		}
		if rec.Epoch != epoch+1 {
			return 0, fmt.Errorf("WAL resumes at epoch %d but checkpoint is at %d; log truncated past its checkpoint", rec.Epoch, epoch)
		}
		if err := applyLogged(dg, rec.Kind, rec.Payload); err != nil {
			return 0, fmt.Errorf("replaying epoch %d: %w", rec.Epoch, err)
		}
		epoch = rec.Epoch
	}
	return epoch, nil
}

// alignWAL reconciles a log with the epoch of the state it continues.
// The log can end behind it — empty after a checkpoint-only restart, its
// valid prefix shortened by corruption the checkpoint already covers, or
// a follower's log after a re-bootstrap past it. Drop the stale remains
// (every surviving record is at or below epoch, hence redundant) and
// re-base, so the next batch appends epoch+1 instead of tripping the
// contiguity check and wedging.
func alignWAL(wal *storage.WAL, epoch uint64) error {
	last, ok := wal.LastEpoch()
	if ok && last >= epoch {
		return nil
	}
	if ok {
		if err := wal.TruncateThrough(epoch); err != nil {
			return fmt.Errorf("dropping stale WAL prefix: %w", err)
		}
	}
	return wal.AlignTo(epoch)
}
