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
// not evict another constraint's certificate. 256 fig1 constraints,
// differing only in MaxCandidates, fill the map; then 8 of them are forced
// to re-search, and every one of the 256 keeps its certificate. The
// winner ties its runner-up (both 72), so after a Refresh to epoch 1 with
// nothing dirty every certificate fails its strict re-check.
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
	m.Refresh(set, 1, nil, false)
	for i := 0; i < 8; i++ {
		if _, err := m.DiscoverAt(1, cs[i*len(cs)/8]); err != nil {
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

// TestMaintainedTieServesAtItsEpoch: on fig1 under coverage/coverage,
// {K: 2, N: 4, Tight, D: 2} has a winner that ties its runner-up (both
// 72). At the epoch its search ran, the certificate serves the same
// preview and CertifiedAt says so; after a Refresh to a new epoch the
// strict re-check fails and the tie is searched again.
func TestMaintainedTieServesAtItsEpoch(t *testing.T) {
	set := score.Compute(fig1.Graph(), score.DefaultWalkOptions())
	m := NewMaintained(Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	m.Refresh(set, 0, nil, true)
	c := Constraint{K: 2, N: 4, Mode: Tight, D: 2}
	want, err := New(set, m.opts).Discover(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.CertifiedAt(0, c) {
		t.Fatal("certified before any search")
	}
	first, err := m.DiscoverAt(0, c)
	if err != nil || !samePreview(first, want) {
		t.Fatalf("search got (%+v, %v), want %+v", first, err, want)
	}
	m.mu.Lock()
	cert := m.certs[c]
	m.mu.Unlock()
	if cert == nil || cert.rival != first.Score {
		t.Fatalf("winner scores %v, certificate %+v: the constraint no longer ties its runner-up", first.Score, cert)
	}
	if !m.CertifiedAt(0, c) {
		t.Fatal("a tied winner is not certified at the epoch its search ran")
	}
	second, err := m.DiscoverAt(0, c)
	if err != nil || !samePreview(second, want) {
		t.Fatalf("certificate serve got (%+v, %v), want %+v", second, err, want)
	}
	if searched, served := m.FullSearches(), m.CertServes(); searched != 1 || served != 1 {
		t.Fatalf("%d full searches and %d certificate serves at epoch 0, want 1 and 1", searched, served)
	}

	m.Refresh(set, 1, nil, false)
	if m.CertifiedAt(1, c) {
		t.Fatal("a tied winner is still certified after a Refresh")
	}
	third, err := m.DiscoverAt(1, c)
	if err != nil || !samePreview(third, want) {
		t.Fatalf("re-search got (%+v, %v), want %+v", third, err, want)
	}
	if searched, served := m.FullSearches(), m.CertServes(); searched != 2 || served != 1 {
		t.Fatalf("%d full searches and %d certificate serves after the Refresh, want 2 and 1", searched, served)
	}
}

// TestMaintainedConciseMemo: a concise answer is solved once per (epoch,
// k, n). A memo hit equals a fresh dynamic program, stats included;
// requests that differ only in D or MaxCandidates share one answer; an
// infeasible (k, n) memoizes its ErrNoPreview; a Refresh drops every
// answer; and a full memo stores nothing more and leaves the certificates
// alone.
func TestMaintainedConciseMemo(t *testing.T) {
	set := score.Compute(fig1.Graph(), score.DefaultWalkOptions())
	m := NewMaintained(Options{Key: score.KeyCoverage, NonKey: score.NonKeyCoverage})
	m.Refresh(set, 0, nil, true)
	c := Constraint{K: 2, N: 4, Mode: Concise}
	want, err := New(set, m.opts).DynamicProgramming(c)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := m.DiscoverAt(0, c)
	if err != nil || !reflect.DeepEqual(miss, want) {
		t.Fatalf("miss got (%+v, %v), want %+v", miss, err, want)
	}
	hit, err := m.DiscoverAt(0, Constraint{K: 2, N: 4, Mode: Concise, D: 5, MaxCandidates: 1})
	if err != nil || !reflect.DeepEqual(hit, want) {
		t.Fatalf("hit got (%+v, %v), want %+v", hit, err, want)
	}
	if &hit.Tables[0] != &miss.Tables[0] {
		t.Fatal("requests differing only in D and MaxCandidates got separate answers")
	}
	for i := 0; i < 2; i++ {
		if _, err := m.DiscoverAt(0, Constraint{K: 7, N: 7, Mode: Concise}); !errors.Is(err, ErrNoPreview) {
			t.Fatalf("k above the type count: got %v, want ErrNoPreview", err)
		}
	}
	m.mu.Lock()
	memo, ok := m.concise[[2]int{7, 7}]
	m.mu.Unlock()
	if !ok || !errors.Is(memo.err, ErrNoPreview) {
		t.Fatalf("ErrNoPreview not memoized: %+v", memo)
	}

	m.Refresh(set, 1, nil, false)
	m.mu.Lock()
	left := len(m.concise)
	m.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d concise answers survived a Refresh", left)
	}
	after, err := m.DiscoverAt(1, c)
	if err != nil || !reflect.DeepEqual(after, want) {
		t.Fatalf("after Refresh got (%+v, %v), want %+v", after, err, want)
	}
	if &after.Tables[0] == &miss.Tables[0] {
		t.Fatal("the answer from before the Refresh was served again")
	}

	// The cap: a scan of 300 (k, n) pairs fills the memo, stores nothing
	// past it, and costs a certificate nothing.
	tight := Constraint{K: 3, N: 6, Mode: Tight, D: 2}
	if _, err := m.DiscoverAt(1, tight); err != nil {
		t.Fatal(err)
	}
	var scan []Constraint
	for k := 1; k <= 3; k++ {
		for n := k; n < k+100; n++ {
			scan = append(scan, Constraint{K: k, N: n, Mode: Concise})
		}
	}
	for _, c := range scan {
		if _, err := m.DiscoverAt(1, c); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	_, stored := m.concise[[2]int{3, 102}]
	size := len(m.concise)
	m.mu.Unlock()
	if stored || size != maxCerts {
		t.Fatalf("after the scan: last pair stored %t, %d answers, want false and %d", stored, size, maxCerts)
	}
	searched := m.FullSearches()
	if _, err := m.DiscoverAt(1, tight); err != nil || m.FullSearches() != searched {
		t.Fatalf("re-asking %+v after the scan: err %v, %d more full searches", tight, err, m.FullSearches()-searched)
	}
}
