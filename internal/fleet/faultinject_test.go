package fleet

// Promotion-safety fault injection: kill the leader at the two nastiest
// instants inside a write — after the WAL fsync but before publication,
// and before the fsync — then fail over and check the promoted replica
// against the dead leader's on-disk WAL, which is the ground truth for
// what was durable.
//
// The invariant under test has two directions:
//
//   - no acked-write loss: every epoch the leader acknowledged AND that
//     replication had delivered before the crash is still served by the
//     promoted replica (replication is asynchronous, so an ack that
//     reached no replica dies with the leader — that window is why the
//     harness quiesces replication before arming the doomed write, so
//     here "acked" and "acked-and-replicated" coincide);
//   - no phantom epochs: the promoted replica never serves an epoch
//     beyond the last record in the dead leader's durable WAL — a
//     replica cannot invent history the leader didn't fsync.
//
// The injection reuses the crash-harness pattern from the durability
// tests: the graph's durability hook is swapped for one that optionally
// appends the real WAL record, severs every client connection and the
// listener (SIGKILL semantics), and returns an error so the epoch is
// never published or acknowledged.

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"github.com/uta-db/previewtables/internal/storage"
)

func TestFleetPromotionSafetyMidBatchCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fsynced: the crash lands after the WAL append, so the doomed
		// epoch IS durable on the dead leader — legal for a replica to
		// hold (it is recoverable history) but never required.
		fsynced bool
	}{
		{"crash after fsync before publish", true},
		{"crash before fsync", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const g = "solo"
			h := startFleet(t, []string{"alpha"}, []string{g}, 2, RouterOptions{FailAfter: 2, Logf: t.Logf})
			lp := h.leaders["alpha"]

			// A few healthy batches, then quiesce so every replica has
			// applied everything acked so far: from here on, "acked"
			// means "acked and replicated".
			var acked uint64
			for i := 0; i < 3; i++ {
				acked = h.mustPost(g, writeBody(g, i))
			}
			h.quiesce()

			// Arm the doomed write: the hook mimics a process that dies
			// mid-durability — optionally the fsync happened, the
			// publication never does, and no ack escapes.
			gr, _ := lp.reg.Get(g)
			wal := gr.WAL()
			gr.Live().SetDurability(func(epoch uint64, kind byte, payload []byte) error {
				if tc.fsynced {
					if err := wal.Append(epoch, kind, payload); err != nil {
						return err
					}
				}
				lp.crash()
				return fmt.Errorf("fault injection: leader died mid-batch at epoch %d", epoch)
			})
			if status, _ := h.post(g, writeBody(g, 8888)); status == http.StatusOK {
				t.Fatalf("doomed write was acknowledged (status %d); the crash must precede the ack", status)
			}

			// Two failed sweeps trip the failover.
			h.rt.ProbeAll()
			h.rt.ProbeAll()
			if got := h.rt.Failovers(); got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			newLeader := h.leaderBase("alpha")
			if newLeader == lp.ts.URL {
				t.Fatal("shard still routed to the dead leader")
			}

			// Ground truth: replay the dead leader's WAL from disk.
			recs, err := replayRecords(filepath.Join(lp.walRoot, g))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("dead leader's WAL is empty; the healthy batches never hit disk")
			}
			durable := recs[len(recs)-1]
			if tc.fsynced {
				if durable != acked+1 {
					t.Fatalf("WAL tail epoch = %d, want the doomed %d: the injected fsync is missing", durable, acked+1)
				}
			} else if durable != acked {
				t.Fatalf("WAL tail epoch = %d, want the last acked %d: an unfsynced epoch reached disk", durable, acked)
			}

			promoted := h.statusEpoch(newLeader, g)
			if promoted < acked {
				t.Errorf("promoted replica serves epoch %d, below the acked %d: acknowledged writes lost", promoted, acked)
			}
			if promoted > durable {
				t.Errorf("promoted replica serves epoch %d beyond the WAL tail %d: phantom epoch", promoted, durable)
			}

			// The promoted replica must lead for real: the next write
			// through the router acks at exactly promoted+1.
			if got := h.mustPost(g, writeBody(g, 9999)); got != promoted+1 {
				t.Fatalf("post-failover write acked at epoch %d, want %d", got, promoted+1)
			}
		})
	}
}

// replayRecords returns the epochs of every record in a WAL directory,
// in order — the dead leader's durable history.
func replayRecords(dir string) ([]uint64, error) {
	recs, err := storage.ReplayWAL(dir)
	if err != nil {
		return nil, err
	}
	epochs := make([]uint64, len(recs))
	for i, r := range recs {
		epochs[i] = r.Epoch
	}
	return epochs, nil
}
