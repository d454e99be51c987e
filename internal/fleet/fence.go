package fleet

// Fencing: the router is the fleet's single write authority, and the
// fencing epoch is how it makes that authority stick across failures.
// Each shard carries a monotonically increasing fence, minted by the
// router and persisted by the shard's leader next to its WAL manifest
// (internal/storage). Every proxied POST write is stamped with the
// owner's current fence; a node whose installed fence differs answers
// 409 instead of acknowledging. The fence is bumped at every promotion
// (the promote request carries old+1, installed by the winner BEFORE
// it starts leading) and at every migration cutover that takes graphs
// away from a shard — so a deposed leader that wakes back up holds a
// fence the router no longer stamps, and can never acknowledge another
// write, no matter how briefly it was unreachable.

import (
	"context"
	"fmt"
	"net/http"

	"github.com/uta-db/previewtables/internal/wire"
)

// fenceDoc is the body of the fence exchange, both ways.
type fenceDoc struct {
	Fence uint64 `json:"fence"`
}

// fenceExchange tells the node at base to raise its persisted fence to
// at least want and returns the fence the node actually holds after the
// exchange — max(want, persisted). The max matters on router restart:
// a fresh router sends want=1, and a leader that survived the previous
// router's tenure answers with the real (higher) fence it persisted, so
// the router recovers the fleet's fencing state instead of resetting it.
func (rt *Router) fenceExchange(base string, want uint64) (uint64, error) {
	var got fenceDoc
	if _, err := wire.Call(context.TODO(), rt.probe, http.MethodPost, base+"/v1/replication/fence", 0, fenceDoc{Fence: want}, &got); err != nil {
		return 0, fmt.Errorf("fence exchange with %s: %w", base, err)
	}
	return got.Fence, nil
}
