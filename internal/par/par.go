// Package par is the repo's worker-pool substrate: a pull-based pool that
// fans tasks out over a bounded number of goroutines.
//
// Every parallel hot path (score precomputation, the k-subset searches of
// internal/core) runs one task per index through ForEach, and no result
// depends on which worker ran a task or when: a task writes only slots it
// owns, computed in an order that does not depend on the worker count,
// and results are combined on one goroutine, in task order or by a rule
// that breaks every tie. Floating-point accumulation order — the only way
// a data-race-free parallel run could diverge from the sequential one —
// is therefore fixed by the tasks, not by scheduling, which is what lets
// the callers promise bit-identical results at any parallelism.
package par

import "runtime"

// Workers resolves a parallelism knob: values above 1 are returned as-is,
// anything else (0, 1, negative) means sequential execution and resolves
// to 1. Callers that want "use all cores" pass Auto.
func Workers(n int) int {
	if n > 1 {
		return n
	}
	return 1
}

// Auto is the conventional "one worker per core" parallelism value.
func Auto() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n), distributing indexes over up
// to workers goroutines through a shared pull counter. With workers <= 1
// (or n < 2) it degenerates to a plain loop on the calling goroutine.
// ForEach returns after every call completed; fn must handle its own
// synchronization for any shared state beyond slots it exclusively owns.
//
// A panic inside fn is caught on the worker, the remaining work is
// drained, and the first panic value re-raised on the calling goroutine —
// so a panicking hot path behaves like its sequential counterpart
// (recoverable by the caller, e.g. net/http's per-request recover)
// instead of crashing the process from an unrecoverable goroutine.
func ForEach(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int) // unbuffered: pure pull, no imbalance
	done := make(chan any)
	call := func(i int) (panicked any) {
		defer func() { panicked = recover() }()
		fn(i)
		return nil
	}
	for w := 0; w < workers; w++ {
		go func() {
			var panicked any
			for i := range next {
				if panicked != nil {
					continue // drain; the first panic already decided the outcome
				}
				panicked = call(i)
			}
			done <- panicked
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var panicked any
	for w := 0; w < workers; w++ {
		if p := <-done; p != nil && panicked == nil {
			panicked = p
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}
