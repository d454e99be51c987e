package core

// Incremental discovery across epochs. A live graph republishes its score
// set on every write batch, and rebuilding a Discoverer from scratch is
// cheap — but the tight/diverse *search* over it (Apriori) is the most
// expensive computation in the system (~0.3 s for a diverse k=5 search on
// the 100k-entity bench graph). Maintained keeps a Discoverer current
// across epochs without re-searching, by combining two facts:
//
//  1. A write batch moves the non-key aggregates (coverage histograms,
//     entropy) of only the entity types it touches — the "dirty" set the
//     dynamic layer already tracks for its incremental score refresh. A
//     clean type's ranked candidate list is bit-identical before and
//     after, so the refreshed Discoverer reuses it and re-ranks only the
//     dirty types. Key scores under the random-walk measure drift
//     globally each epoch; Refresh diffs them across all types, so walk
//     drift simply widens the effective moved set.
//
//  2. The previous search's winner stays the winner until some moved
//     type's gain could carry another subset across the top-k boundary.
//     Each full search records a certificate: the winning key subset plus
//     a "rival" bound — an upper bound on the preview score of every
//     OTHER feasible subset. Refresh inflates the rival by the largest
//     possible total uplift a subset could collect from moved types; a
//     later Discover re-scores just the certified winner (O(k·n)) and
//     serves it when it still strictly beats the rival. Only when the
//     boundary is crossed does a full (parallel) re-search run, which
//     also re-seeds the rival from the true runner-up score.
//
// Soundness of the uplift bound: allocate() is exact (greedy on
// non-increasing, non-negative marginals), so a subset A's score is
// S(A) = max over budget splits of Σ_{t∈A} ks(t)·prefix[t][m_t]. For each
// moved type define uplift(t) = max_m [ks'(t)·prefix'[t][m] −
// ks(t)·prefix[t][m]]₊; then S'(A) ≤ S(A) + Σ_{t∈A∩moved} uplift(t) for
// every A, because the optimal new split is also *a* split under the old
// scores. A subset contains at most k types, so adding the top
// min(k,|moved|) uplifts to the rival preserves rival ≥ max_{A≠winner}
// S'(A). Feasibility (usable types, schema distances) is purely
// structural — RankNonKeys includes every incidence regardless of score —
// so the subset space cannot grow under a non-structural refresh, and
// "no preview" / "budget exceeded" outcomes carry across epochs too.
//
// The strict inequality S'(winner) > rival matters for byte-identity:
// it implies the winner strictly beats every other subset, so a cold
// search's lexicographic tie-break must also select it.
//
// Concise constraints take no certificate. Alg. 2 reads only k and n, so
// its answer is a function of (epoch, k, n): DiscoverAt solves each pair
// once per epoch and keeps the answer, in a map of its own, until the next
// Refresh.

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/par"
	"github.com/uta-db/previewtables/internal/score"
)

// ErrStaleEpoch is returned by DiscoverAt/AnytimeAt when the Maintained
// state is not at the requested epoch (the caller raced a refresh, or no
// refresh has happened yet). Callers fall back to a cold Discoverer for
// their view.
var ErrStaleEpoch = errors.New("core: maintained discoverer not at requested epoch")

// maxCerts bounds the certificate map, and on its own the concise memo:
// constraints arrive from request parameters, and an adversarial parameter
// scan must not grow state without bound. Eviction is arbitrary — a
// dropped certificate only costs one extra full search. A full concise
// memo stores nothing more until the next Refresh empties it; a concise
// answer it did not store costs one dynamic program (~50 µs on the
// 100k-entity graph).
const maxCerts = 256

// topCert certifies one constraint's search outcome at the current epoch.
type topCert struct {
	// keys is the winning key subset (table order). nil when err is set.
	keys []graph.TypeID
	// rival upper-bounds the preview score of every feasible subset other
	// than keys. -Inf when keys is the only feasible subset.
	rival float64
	// err records a structural outcome (ErrNoPreview, ErrSearchBudget):
	// the feasible space and candidate volume depend only on the schema,
	// so these survive every non-structural refresh.
	err error
}

// conciseAnswer is Alg. 2's answer for one (k, n) at the current epoch:
// the preview, or err (ErrNoPreview).
type conciseAnswer struct {
	p   Preview
	err error
}

// searchFlight deduplicates concurrent full searches for one constraint:
// followers wait for the owner's result instead of re-running a full
// Apriori. landed is false when done closes because the owner's search
// panicked; p and err are then empty and waiters retry.
type searchFlight struct {
	epoch  uint64
	done   chan struct{}
	landed bool
	p      Preview
	err    error
}

// Maintained carries a Discoverer forward across the epochs of one graph
// (a static graph has only epoch 0) for one (key measure, non-key
// measure) pair. All methods are safe for concurrent use; full searches
// run outside the state lock so cheap certificate hits (and anytime
// answers) are never blocked behind one.
type Maintained struct {
	opts Options

	mu       sync.Mutex
	disc     *Discoverer
	epoch    uint64
	init     bool
	certs    map[Constraint]*topCert
	concise  map[[2]int]conciseAnswer // by (k, n), this epoch only
	inflight map[Constraint]*searchFlight

	// Counters observable by tests and benchmarks.
	fullSearches atomic.Int64
	certServes   atomic.Int64
}

// NewMaintained returns an empty Maintained state; the first Refresh
// populates it (and is always a cold build).
func NewMaintained(opts Options) *Maintained {
	return &Maintained{
		opts:     opts,
		certs:    make(map[Constraint]*topCert),
		concise:  make(map[[2]int]conciseAnswer),
		inflight: make(map[Constraint]*searchFlight),
	}
}

// Epoch returns the epoch the state is maintained at, and whether it has
// been initialized at all.
func (m *Maintained) Epoch() (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch, m.init
}

// FullSearches returns how many full Apriori searches have run (tests and
// benchmarks assert the certificate path avoids them).
func (m *Maintained) FullSearches() int64 { return m.fullSearches.Load() }

// CertServes returns how many discoveries were served from a certificate
// without a full search.
func (m *Maintained) CertServes() int64 { return m.certServes.Load() }

// Refresh advances the maintained state to epoch over the given score
// set. dirty lists the entity types whose non-key aggregates moved since
// the previous refresh (union over all intervening batches); structural
// forces a cold rebuild (new types or relationship types, a recovery or
// resync where batch contiguity broke, or an unknown delta). Epochs at or
// below the current one are ignored.
func (m *Maintained) Refresh(set *score.Set, epoch uint64, dirty []graph.TypeID, structural bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.init && epoch <= m.epoch {
		return
	}
	// A concise answer holds at its own epoch only.
	clear(m.concise)
	old := m.disc
	if !m.init || structural || old.schema.NumTypes() != set.Schema().NumTypes() {
		m.disc = New(set, m.opts)
		// Certificates (including error certificates) assume an unchanged
		// feasible space; a structural change voids them all.
		m.certs = make(map[Constraint]*topCert)
		m.epoch, m.init = epoch, true
		return
	}

	nd := rebuiltFrom(old, set, dirty, m.opts)

	// Effective moved set: the declared dirty types plus every type whose
	// key score drifted (the random-walk measure moves globally on any
	// edge change). O(T) — negligible next to re-ranking.
	moved := make(map[graph.TypeID]bool, len(dirty))
	for _, t := range dirty {
		moved[t] = true
	}
	n := set.Schema().NumTypes()
	for t := 0; t < n; t++ {
		id := graph.TypeID(t)
		if !moved[id] && old.keyScore(id) != nd.keyScore(id) {
			moved[id] = true
		}
	}

	if len(m.certs) > 0 && len(moved) > 0 {
		// Sorted descending uplifts with prefix sums: certificate k's
		// rival inflates by the top min(k, |moved|) uplifts.
		uplifts := make([]float64, 0, len(moved))
		for t := range moved {
			if u := upliftOf(old, nd, t); u > 0 {
				uplifts = append(uplifts, u)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(uplifts)))
		for c, cert := range m.certs {
			if cert.err != nil {
				continue
			}
			top := c.K
			if top > len(uplifts) {
				top = len(uplifts)
			}
			for i := 0; i < top; i++ {
				cert.rival += uplifts[i]
			}
		}
	}

	m.disc = nd
	m.epoch = epoch
}

// rebuiltFrom builds the refreshed Discoverer: clean types reuse the old
// ranked slices (their inputs did not move, so a fresh ranking would be
// bit-identical), dirty types re-rank, every type's products are
// recomputed (key scores may drift on any type), and the all-pairs
// distance matrix carries over unchanged (the schema graph did not
// change structurally).
func rebuiltFrom(old *Discoverer, set *score.Set, dirty []graph.TypeID, opts Options) *Discoverer {
	s := set.Schema()
	d := &Discoverer{set: set, schema: s, opts: opts}
	d.ranked = make([][]score.RankedIncidence, s.NumTypes())
	copy(d.ranked, old.ranked)
	par.ForEach(opts.Parallelism, len(dirty), func(i int) {
		d.ranked[dirty[i]] = set.RankNonKeys(opts.NonKey, dirty[i])
	})
	d.products()
	d.dist = old.Distances()
	d.distOnce.Do(func() {})
	return d
}

// upliftOf bounds how much more a single table keyed by t can contribute
// under the new scores than under the old, over every possible candidate
// count m: max_m [ks'·prefix'[m] − ks·prefix[m]], clamped at 0.
func upliftOf(old, nd *Discoverer, t graph.TypeID) float64 {
	tO, tN := old.table[t], nd.table[t]
	var u float64
	for m := 1; m < len(tN) && m < len(tO); m++ {
		if diff := tN[m] - tO[m]; diff > u {
			u = diff
		}
	}
	return u
}

// DiscoverAt solves the discovery problem exactly at the given epoch,
// returning precisely what a cold Discoverer built from that epoch's
// score set would return from Discover. It serves from a certificate when
// the certified winner still strictly beats the rival bound, and
// otherwise runs a full (parallel) search — outside the state lock, with
// concurrent searches for the same constraint collapsed to one — and
// installs a fresh certificate. A concise constraint is answered once per
// (epoch, k, n), whatever its D and MaxCandidates, which Alg. 2 ignores:
// every caller gets the same memoized Preview, so callers must not modify
// it. Returns ErrStaleEpoch when the state is not at epoch.
func (m *Maintained) DiscoverAt(epoch uint64, c Constraint) (Preview, error) {
	if err := c.Validate(); err != nil {
		return Preview{}, err
	}
	m.mu.Lock()
	if !m.init || m.epoch != epoch {
		m.mu.Unlock()
		return Preview{}, ErrStaleEpoch
	}
	d := m.disc
	if c.Mode == Concise {
		key := [2]int{c.K, c.N}
		a, ok := m.concise[key]
		m.mu.Unlock()
		if ok {
			return a.p, a.err
		}
		p, err := d.DynamicProgramming(Constraint{K: c.K, N: c.N, Mode: Concise})
		m.mu.Lock()
		if m.epoch == epoch && len(m.concise) < maxCerts {
			m.concise[key] = conciseAnswer{p: p, err: err}
		}
		m.mu.Unlock()
		return p, err
	}
	if cert, ok := m.certs[c]; ok {
		if cert.err != nil {
			m.certServes.Add(1)
			m.mu.Unlock()
			return Preview{}, cert.err
		}
		if p, ok := certPreview(d, cert, c); ok {
			m.certServes.Add(1)
			m.mu.Unlock()
			return p, nil
		}
	}
	if f := m.inflight[c]; f != nil && f.epoch == epoch {
		m.mu.Unlock()
		<-f.done
		if !f.landed {
			// The owner's search panicked and withdrew the flight: serve
			// or search afresh.
			return m.DiscoverAt(epoch, c)
		}
		return f.p, f.err
	}
	f := &searchFlight{epoch: epoch, done: make(chan struct{})}
	m.inflight[c] = f
	m.mu.Unlock()
	return m.fly(d, c, f)
}

// fly runs the full search for the flight f the caller just installed,
// then withdraws f, installs the certificate and releases f's waiters.
// The deferred landing also runs when the search panics: f is withdrawn
// without a certificate and its waiters retry, so a static graph, which
// never leaves its epoch, is not wedged behind a flight that never lands.
func (m *Maintained) fly(d *Discoverer, c Constraint, f *searchFlight) (p Preview, err error) {
	var runnerUp float64
	defer func() {
		m.mu.Lock()
		if m.inflight[c] == f {
			delete(m.inflight, c)
		}
		// Install the certificate only if no refresh moved the state while
		// the search ran; a newer epoch's answer must come from a newer
		// search (or an uplift-adjusted certificate, which this is not).
		if f.landed && m.init && m.epoch == f.epoch {
			var cert *topCert
			switch {
			case err == nil:
				cert = &topCert{keys: p.Keys(), rival: runnerUp}
			case errors.Is(err, ErrNoPreview) || errors.Is(err, ErrSearchBudget):
				cert = &topCert{err: err}
			}
			if cert != nil {
				// A certificate that failed its re-check is replaced in
				// place; only a new constraint grows the map and evicts.
				if _, ok := m.certs[c]; !ok && len(m.certs) >= maxCerts {
					for k := range m.certs {
						delete(m.certs, k)
						break
					}
				}
				m.certs[c] = cert
			}
		}
		m.mu.Unlock()
		f.p, f.err = p, err
		close(f.done)
	}()
	m.fullSearches.Add(1)
	p, runnerUp, err = d.apriori(c, par.Workers(m.opts.Parallelism))
	f.landed = true
	return p, err
}

// certPreview re-scores a certified winner against its rival bound and,
// when it still strictly wins, assembles its preview. The strict
// inequality guarantees a cold search would select the same subset even
// through its lexicographic tie-break. Called with m.mu held.
func certPreview(d *Discoverer, cert *topCert, c Constraint) (Preview, bool) {
	for _, t := range cert.keys {
		if !d.usable(t) {
			return Preview{}, false
		}
	}
	var scratch picks
	s := d.previewScore(cert.keys, c.N, &scratch)
	if !(s > cert.rival) {
		return Preview{}, false
	}
	p, err := d.ComputePreview(cert.keys, c.N)
	if err != nil {
		return Preview{}, false
	}
	p.Stats = SearchStats{SubsetsScored: 1}
	return p, true
}

// CertifiedAt reports whether DiscoverAt at this epoch would answer
// without a full search: the state is at epoch and the constraint has a
// currently-valid certificate. Concise needs none: DiscoverAt answers it
// from the epoch's memo or with one dynamic program, which is cheap and
// exact. Within one epoch the answer can only go from false to true
// (scores are frozen; only a completed search adds a certificate), which
// lets callers key caches on it.
func (m *Maintained) CertifiedAt(epoch uint64, c Constraint) bool {
	if c.Validate() != nil {
		return false
	}
	if c.Mode == Concise {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.init || m.epoch != epoch {
		return false
	}
	cert, ok := m.certs[c]
	if !ok {
		return false
	}
	if cert.err != nil {
		return true
	}
	_, ok = certPreview(m.disc, cert, c)
	return ok
}

// AnytimeAt answers with the budget-bounded anytime search over the
// maintained Discoverer at the given epoch (see Discoverer.AnytimeBest).
// Returns ErrStaleEpoch when the state is not at epoch.
func (m *Maintained) AnytimeAt(epoch uint64, c Constraint) (Preview, bool, error) {
	m.mu.Lock()
	if !m.init || m.epoch != epoch {
		m.mu.Unlock()
		return Preview{}, false, ErrStaleEpoch
	}
	d := m.disc
	m.mu.Unlock()
	// The Discoverer is immutable; the bounded search runs outside the
	// lock so refreshes and certificate hits are never blocked behind it.
	return d.AnytimeBest(c)
}
