package storage

import "testing"

// TestGrowEndsAtCount: a table grown one record at a time through grow
// ends exactly as long as its count, with no capacity past it for the
// graph to keep, and never holds more than its count on the way.
func TestGrowEndsAtCount(t *testing.T) {
	for _, count := range []uint64{1, 3, presizeCap - 1, presizeCap, presizeCap + 1, 692_503} {
		var s []int32
		for i := uint64(0); i < count; i++ {
			s = append(grow(s, count), 0)
			if uint64(cap(s)) > count {
				t.Fatalf("count %d: capacity %d after %d records", count, cap(s), i+1)
			}
		}
		if uint64(cap(s)) != count {
			t.Errorf("count %d: capacity %d, want %d", count, cap(s), count)
		}
	}
}
