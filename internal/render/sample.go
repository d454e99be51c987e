// The default sampling stream and its position memo. A render with a nil
// Options.Rand samples every table of a preview, in table order, from one
// fresh seed-1 stream, and core.SamplePositions makes one draw per entity
// of a table's key type. The stream is the same on every render, so the
// sorted positions it yields for table i depend only on the tuple count
// and on the key-type sizes of tables 1..i, in order: not on the graph,
// its epoch, the route or the format. One process-wide memo keyed by
// exactly that serves every renderer, and a hit skips the draws.

package render

import (
	"encoding/binary"
	"math/rand"
	"sync"

	"github.com/uta-db/previewtables/internal/core"
)

// maxMemoPositions caps the positions the memo stores, summed over its
// entries (8 bytes each). Every entry holds at least one position. On a
// live graph a write can change any key-type size, so keys churn; an
// evicted entry costs only a redraw.
const maxMemoPositions = 1 << 18

// defaultMemo is the memo every default stream shares.
var defaultMemo = newPositionMemo(maxMemoPositions)

// positionMemo maps a stream key (sampleStream.key) to the sorted sample
// positions of the key's last table. Stored slices are shared by every
// reader and never written after they are stored.
type positionMemo struct {
	max     int
	mu      sync.RWMutex
	entries map[string][]int
	stored  int // positions held, summed over entries
}

func newPositionMemo(max int) *positionMemo {
	return &positionMemo{max: max, entries: make(map[string][]int)}
}

func (m *positionMemo) get(key []byte) ([]int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.entries[string(key)]
	return p, ok
}

// put stores p under key, first evicting arbitrary entries until it fits
// under the cap. A p larger than the cap is not stored.
func (m *positionMemo) put(key []byte, p []int) {
	if len(p) > m.max {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[string(key)]; ok {
		return
	}
	for k, old := range m.entries {
		if m.stored+len(p) <= m.max {
			break
		}
		delete(m.entries, k)
		m.stored -= len(old)
	}
	m.entries[string(key)] = p
	m.stored += len(p)
}

// sampleStream is one render's default stream. It samples from the memo,
// and draws only on a miss: then it replays, from a fresh seed-1 rng, the
// draws of every earlier table it has not drawn yet.
type sampleStream struct {
	memo   *positionMemo
	tuples int
	key    []byte     // varint tuples, then one varint size per table so far
	sizes  []int      // key-type size of every table so far
	rng    *rand.Rand // nil until the first miss
	drawn  int        // tables whose draws rng has made
}

func newSampleStream(m *positionMemo, tuples int) *sampleStream {
	return &sampleStream{memo: m, tuples: tuples, key: binary.AppendUvarint(nil, uint64(tuples))}
}

// next returns the next table's sample positions in a key type of n
// entities, as core.SamplePositions on the stream would: nil when the
// sample is the whole type.
func (s *sampleStream) next(n int) []int {
	s.key = binary.AppendUvarint(s.key, uint64(n))
	s.sizes = append(s.sizes, n)
	if s.tuples >= n {
		return nil
	}
	if p, ok := s.memo.get(s.key); ok {
		return p
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	var p []int
	for ; s.drawn < len(s.sizes); s.drawn++ {
		p = core.SamplePositions(s.rng, s.sizes[s.drawn], s.tuples)
	}
	s.memo.put(s.key, p)
	return p
}
