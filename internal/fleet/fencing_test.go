package fleet

// The fencing regression test: a deposed leader that comes back from
// the dead must acknowledge ZERO writes. The scenario is the classic
// split-brain opener — leader killed mid-write, a replica promoted,
// then the old leader process revived from its intact on-disk state —
// and the fence is what slams the door: the revived process recovers
// its persisted fencing epoch, the router has since minted a higher
// one, and every write the old leader sees (stamped with the current
// fence, or unstamped) mismatches its own and is answered 409.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// directPost writes straight at a node — around the router, the way a
// partitioned client or a stale DNS entry would — optionally stamped.
func directPost(t *testing.T, base, graph, body, fence string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs/"+graph+"/edges", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if fence != "" {
		req.Header.Set(wire.FenceHeader, fence)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(wire.FenceHeader) + "\n" + string(raw)
}

func TestFleetFencing(t *testing.T) {
	h := startFleet(t, []string{"alpha"}, []string{"solo"}, 2, RouterOptions{FailAfter: 2, Logf: t.Logf})

	// First sweep activates fencing: the router exchanges fence 1 with
	// the leader, which persists it next to its WAL manifests.
	h.rt.ProbeAll()
	h.rt.mu.RLock()
	sh := h.rt.shards["alpha"]
	h.rt.mu.RUnlock()
	if f := sh.fence.Load(); f != 1 {
		t.Fatalf("after first sweep, shard fence = %d, want 1", f)
	}

	// Seed some acknowledged history and let the replicas catch up.
	for i := 0; i < 3; i++ {
		h.mustPost("solo", writeBody("solo", i))
	}
	h.quiesce()
	h.assertDifferential("fenced steady state")

	// A writer hammers the router across the kill, tolerating the
	// dead-leader window: this is the "mid-write" in kill-mid-write.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.post("solo", writeBody("solo", i))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	oldLeader := h.leaderBase("alpha")
	h.leaders["alpha"].crash()
	h.rt.ProbeAll()
	h.rt.ProbeAll()
	close(stop)
	writer.Wait()
	if got := h.rt.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	newLeader := h.leaderBase("alpha")
	if newLeader == oldLeader {
		t.Fatal("failover did not replace the leader")
	}
	if f := sh.fence.Load(); f != 2 {
		t.Fatalf("after failover, shard fence = %d, want 2", f)
	}

	// Revive the deposed leader from its intact durable state: same WAL
	// root, so it recovers its graphs — and its fence (1, now stale).
	revived := startLeaderProc(t, "alpha", []string{"solo"}, h.root)
	frozen := h.statusEpoch(revived.ts.URL, "solo")

	// Replay an acked-style write at the revived node, stamped exactly
	// as the router stamps writes today (fence 2). The node's persisted
	// fence is 1: the stamp names a configuration this node was deposed
	// from, and installing it on the write path would BE the split brain
	// — so it refuses.
	curFence := strconv.FormatUint(sh.fence.Load(), 10)
	if status, body := directPost(t, revived.ts.URL, "solo", writeBody("solo", 7777), curFence); status != http.StatusConflict {
		t.Fatalf("revived leader answered %d to a current-fence write, want 409; body %q", status, body)
	}
	// And unstamped — a client that kept the old leader's address.
	status, body := directPost(t, revived.ts.URL, "solo", writeBody("solo", 8888), "")
	if status != http.StatusConflict {
		t.Fatalf("revived leader answered %d to an unstamped write, want 409; body %q", status, body)
	}
	// The 409 names the node's own fence so operators can see the gap.
	if !strings.HasPrefix(body, "1\n") {
		t.Errorf("409 response fence header = %q, want the node's persisted fence 1", strings.SplitN(body, "\n", 2)[0])
	}
	// Zero acknowledgements means zero epochs: the revived node's history
	// is exactly what it held when it died.
	if got := h.statusEpoch(revived.ts.URL, "solo"); got != frozen {
		t.Fatalf("revived leader advanced from epoch %d to %d: it acknowledged a write while deposed", frozen, got)
	}

	// Meanwhile the fleet is fine: writes through the router land on the
	// promoted leader and reads stay byte-identical.
	h.mustPost("solo", writeBody("solo", 9999))
	h.quiesce()
	h.assertDifferential("after reviving the deposed leader")
}
