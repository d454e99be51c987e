package core

// Failure discipline of Maintained, tested from inside the package: a
// full search or a first Refresh that panics must leave nothing behind
// that parks or poisons later calls. A static graph never leaves epoch 0,
// so anything sticky there would be permanent.

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/score"
)

// outcome is one DiscoverAt call run on its own goroutine; a panic is
// recovered into panicked.
type outcome struct {
	p        Preview
	err      error
	panicked any
}

func discoverAsync(m *Maintained, epoch uint64, c Constraint) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			ch <- o
		}()
		o.p, o.err = m.DiscoverAt(epoch, c)
	}()
	return ch
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedInDiscoverAt reports whether some goroutine is blocked on a
// channel receive inside DiscoverAt: a waiter parked on a search flight.
func parkedInDiscoverAt() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "(*Maintained).DiscoverAt") {
			return true
		}
	}
	return false
}

func samePreview(a, b Preview) bool {
	return a.Score == b.Score && reflect.DeepEqual(a.Tables, b.Tables)
}

// TestMaintainedSearchPanicReleasesWaiters: a full search that panics
// withdraws its flight and releases the waiter parked on it, which
// retries and gets the exact answer; the call after that succeeds too.
func TestMaintainedSearchPanicReleasesWaiters(t *testing.T) {
	set := score.Compute(fig1.Graph(), score.DefaultWalkOptions())
	m := NewMaintained(Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	m.Refresh(set, 0, nil, true)
	c := Constraint{K: 2, N: 4, Mode: Tight, D: 2}
	want, err := New(set, m.opts).Discover(c)
	if err != nil {
		t.Fatal(err)
	}

	// Swap in a Discoverer whose table scores are corrupt, so a search
	// over it panics once it scores a subset. Its distance matrix is held
	// behind a gate: the search stops at its first distance query until a
	// waiter has parked on its flight.
	m.mu.Lock()
	good := m.disc
	bad := New(set, m.opts)
	for i := range bad.table {
		bad.table[i] = nil
	}
	m.disc = bad
	m.mu.Unlock()
	entered, gate := make(chan struct{}), make(chan struct{})
	go bad.distOnce.Do(func() {
		close(entered)
		<-gate
		bad.dist = bad.schema.AllDistances()
	})
	<-entered

	owner := discoverAsync(m, 0, c)
	waitFor(t, "the owner's search flight", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.inflight[c] != nil
	})
	waiter := discoverAsync(m, 0, c)
	waitFor(t, "a waiter parked on the flight", parkedInDiscoverAt)

	// Restore the refreshed Discoverer, then let the owner's search run
	// into the corruption it already holds.
	m.mu.Lock()
	m.disc = good
	m.mu.Unlock()
	close(gate)

	if o := <-owner; o.panicked == nil {
		t.Fatalf("search over corrupt prefix sums returned (%+v, %v) instead of panicking", o.p, o.err)
	}
	var w outcome
	select {
	case w = <-waiter:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still parked 10s after the owner's search panicked")
	}
	if w.panicked != nil || w.err != nil || !samePreview(w.p, want) {
		t.Fatalf("waiter got (%+v, %v, panic %v), want the cold answer %+v", w.p, w.err, w.panicked, want)
	}
	p, err := m.DiscoverAt(0, c)
	if err != nil || !samePreview(p, want) {
		t.Fatalf("next call got (%+v, %v), want the cold answer %+v", p, err, want)
	}
}

// TestMaintainedRefreshPanicRebuilds: a first Refresh that panics leaves
// the state uninitialized, and the next Refresh builds it cold.
func TestMaintainedRefreshPanicRebuilds(t *testing.T) {
	m := NewMaintained(Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Refresh over a nil score set did not panic")
			}
		}()
		m.Refresh(nil, 0, nil, true)
	}()
	if _, ok := m.Epoch(); ok {
		t.Fatal("a panicking first Refresh left the state initialized")
	}
	c := Constraint{K: 2, N: 4, Mode: Diverse, D: 2}
	if _, err := m.DiscoverAt(0, c); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("DiscoverAt after a panicking Refresh: got %v, want ErrStaleEpoch", err)
	}

	set := score.Compute(fig1.Graph(), score.DefaultWalkOptions())
	m.Refresh(set, 0, nil, true)
	if e, ok := m.Epoch(); !ok || e != 0 {
		t.Fatalf("state after rebuild: epoch %d init %t, want 0 true", e, ok)
	}
	want, err := New(set, m.opts).Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := m.DiscoverAt(0, c); err != nil || !samePreview(p, want) {
		t.Fatalf("DiscoverAt after rebuild got (%+v, %v), want the cold answer %+v", p, err, want)
	}
}

// TestMaintainedReSearchKeepsCertificates: a full search that replaces a
// certificate which failed its re-check does not grow the map, so it must
// not evict another constraint's certificate. 256 film constraints,
// differing only in MaxCandidates, fill the map; then 8 of them are forced
// to re-search, and every one of the 256 keeps its certificate.
func TestMaintainedReSearchKeepsCertificates(t *testing.T) {
	set := score.Compute(fig1.Graph(), score.DefaultWalkOptions())
	m := NewMaintained(Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	m.Refresh(set, 0, nil, true)
	cs := make([]Constraint, maxCerts)
	for i := range cs {
		cs[i] = Constraint{K: 2, N: 4, Mode: Tight, D: 2, MaxCandidates: 1000 + i}
		if _, err := m.DiscoverAt(0, cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		c := cs[i*len(cs)/8]
		// An infinite rival fails the certificate's re-check.
		m.mu.Lock()
		m.certs[c].rival = math.Inf(1)
		m.mu.Unlock()
		if _, err := m.DiscoverAt(0, c); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.FullSearches(), int64(len(cs)+8); got != want {
		t.Fatalf("%d full searches, want %d (one per constraint, one per forced re-search)", got, want)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range cs {
		if cert := m.certs[c]; cert == nil || math.IsInf(cert.rival, 1) {
			t.Fatalf("constraint %+v lost its certificate (or kept the failed one); %d certificates left", c, len(m.certs))
		}
	}
	if len(m.certs) != maxCerts {
		t.Fatalf("%d certificates, want %d", len(m.certs), maxCerts)
	}
}
