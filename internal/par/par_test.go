package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64} {
		const n = 257
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	if ran {
		t.Fatal("ForEach ran a task for n=0")
	}
}

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ in, want int }{{-5, 1}, {0, 1}, {1, 1}, {2, 2}, {16, 16}} {
		if got := Workers(c.in); got != c.want {
			t.Fatalf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if Auto() < 1 {
		t.Fatalf("Auto() = %d, want >= 1", Auto())
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom 7" {
					t.Fatalf("workers=%d: recovered %v, want \"boom 7\"", workers, r)
				}
			}()
			ForEach(workers, 64, func(i int) {
				if i == 7 {
					panic("boom 7")
				}
			})
			t.Fatalf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}
