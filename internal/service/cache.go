package service

// Response cache: the serving-layer consequence of the replication
// work's byte-identity proof. Within one epoch every read body is a pure
// function of (graph, epoch, endpoint, canonicalized params) — PR 5's
// differential tests assert it literally across processes — so there is
// no reason to re-discover, re-render and re-serialize JSON per request.
// This file caches the exact serialized bytes of the first rendering and
// serves them to every later request at the same key.
//
// Invalidation is implicit: per-graph entries live inside the epoch view
// (registry.go), so a view swap — a leader write batch or a follower's
// ApplyShipped, both of which publish through Graph.publish — abandons
// the whole map to the garbage collector along with the old snapshot.
// Nothing is ever deleted eagerly and no generation counters exist; the
// epoch in the key IS the invalidation. The /v1/graphs listing spans
// graphs, so it gets a one-slot cache keyed by the composite (name,
// epoch) vector of every registered graph (listCache).
//
// Misses are deduplicated singleflight-style: a thundering herd racing
// for one uncached key performs one discovery + render while everyone
// else blocks for the finished bytes. Failed builds are never cached —
// errors are cheap to recompute and must not shadow a later success (the
// search budget, for one, is configurable) — and a build that panics
// withdraws its slot and releases its waiters, which retry, so no key is
// left parked on a build that will never land.
//
// ETags are epoch-derived and strong: a hash of (graph, epoch, mutable,
// endpoint, canonical params). Two consequences fall out of bodies being
// pure functions of that tuple. First, a conditional GET whose
// If-None-Match carries the current tag can be answered 304 before
// touching the cache — the tag alone proves the client's copy is the
// current representation, because tags are minted only by successful
// renders and change with the epoch. Second, a leader and a caught-up
// follower mint identical tags, so validators survive failover between
// byte-identical replicas. The "*" form is deliberately excluded from
// the pre-render fast path: it asserts "any current representation
// exists", which cannot be known without rendering (a request can be
// well-formed yet 422), so it is honored only after a successful build.

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/uta-db/previewtables/internal/wire"
)

// cacheEntry is one immutable rendered response: the exact bytes of a
// 200 body plus the headers that describe them. Entries are never
// mutated after construction, so serving one concurrently is safe
// without copies.
type cacheEntry struct {
	contentType string
	etag        string
	body        []byte
}

// bodyBufs holds the buffers a cache miss renders its body into, as
// wire.Forward pools its copy buffers; the entry keeps an exact-size copy,
// so a cached body carries none of the slack the buffer grew.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// newEntry renders a body through a pooled buffer into a new entry.
func newEntry(contentType string, render func([]byte) ([]byte, error)) (*cacheEntry, error) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	b, err := render((*buf)[:0])
	*buf = b
	if err != nil {
		return nil, err
	}
	body := make([]byte, len(b))
	copy(body, b)
	return &cacheEntry{contentType: contentType, body: body}, nil
}

// respSlot is the singleflight slot for one cache key: the goroutine
// that created the slot builds, everyone else blocks on done. When done
// closes on a landed slot exactly one of ent/err is set; landed is false
// when the build panicked, and waiters then retry.
type respSlot struct {
	done   chan struct{}
	landed bool
	ent    *cacheEntry
	err    error
}

// fill runs build for the slot its caller just installed. Its deferred
// landing first withdraws the slot (withdraw runs under mu) when the
// build failed or panicked, so failed builds are never cached and the
// next request builds afresh, then releases the waiters. A panic still
// propagates to the caller, which for a request is net/http's recover.
func (s *respSlot) fill(mu *sync.Mutex, withdraw func(), build func() (*cacheEntry, error)) (*cacheEntry, error) {
	defer func() {
		if !s.landed || s.err != nil {
			mu.Lock()
			withdraw()
			mu.Unlock()
		}
		close(s.done)
	}()
	s.ent, s.err = build()
	s.landed = true
	return s.ent, s.err
}

// wait parks on a slot another request is building and reports whether
// its build landed; a slot whose build panicked is already withdrawn.
func (s *respSlot) wait() bool {
	<-s.done
	return s.landed
}

// maxCachedResponses bounds one view's response cache. The parameter
// space is capped (maxK × maxN × modes × measures × tuples), but its
// product is large enough that an adversarial scan could otherwise pin
// a view's memory; at the bound, admitting a new key evicts an arbitrary
// completed entry, so a hot key that first arrives after the cap is
// still cacheable (an evicted entry just rebuilds on its next miss).
const maxCachedResponses = 4096

// responseCacher is the shape serveCached needs: the per-view map and
// the cross-graph listing slot both implement it.
type responseCacher interface {
	// cachedResponse returns the entry for key, building at most once
	// per key however many requests race. The bool reports whether the
	// caller was served from cache (false for the builder itself).
	cachedResponse(key string, build func() (*cacheEntry, error)) (*cacheEntry, bool, error)
}

// cachedResponse implements responseCacher on the epoch view. The view
// is the unit of invalidation: a published epoch installs a fresh view
// with an empty map, so entries for dead epochs are unreachable the
// moment the swap lands, even for requests already holding the old view
// (they serve the old epoch consistently, which is the read contract —
// a request started at epoch e keeps e throughout).
func (v *view) cachedResponse(key string, build func() (*cacheEntry, error)) (*cacheEntry, bool, error) {
	v.respMu.Lock()
	if v.resp == nil {
		v.resp = make(map[string]*respSlot)
	}
	if slot, ok := v.resp[key]; ok {
		v.respMu.Unlock()
		if !slot.wait() {
			return v.cachedResponse(key, build)
		}
		return slot.ent, true, slot.err
	}
	slot := &respSlot{done: make(chan struct{})}
	if len(v.resp) >= maxCachedResponses {
		// At capacity: make room for the newcomer by dropping an arbitrary
		// *completed* entry (map iteration order picks it). In-flight slots
		// are never evicted — other requests are parked on them, and
		// removing one would let a racing request start a duplicate build.
		for k, s := range v.resp {
			completed := false
			select {
			case <-s.done:
				completed = true
			default:
			}
			if completed {
				delete(v.resp, k)
				break
			}
		}
	}
	v.resp[key] = slot
	v.respMu.Unlock()
	ent, err := slot.fill(&v.respMu, func() {
		if v.resp[key] == slot {
			delete(v.resp, key)
		}
	}, build)
	return ent, false, err
}

// etagScope is the graph-identity half of an ETag and cache key: who the
// graph is and which epoch is being represented. Static graphs never
// change, so their scope is constant for the process lifetime.
func (v *view) etagScope(name string) string {
	var buf [64]byte
	b := append(buf[:0], name...)
	b = append(b, '|')
	b = strconv.AppendUint(b, v.Epoch, 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, v.mutable)
	return string(b)
}

// listCache caches the single current /v1/graphs rendering. The key is
// the composite scope over every registered graph's (name, epoch), so
// any graph's epoch swap implicitly invalidates it; only the newest key
// is retained — the listing has one current representation, and stale
// epochs' entries would be dead weight.
type listCache struct {
	mu   sync.Mutex
	key  string
	slot *respSlot
}

func (c *listCache) cachedResponse(key string, build func() (*cacheEntry, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if c.slot != nil && c.key == key {
		slot := c.slot
		c.mu.Unlock()
		if !slot.wait() {
			return c.cachedResponse(key, build)
		}
		return slot.ent, true, slot.err
	}
	slot := &respSlot{done: make(chan struct{})}
	c.slot, c.key = slot, key
	c.mu.Unlock()
	ent, err := slot.fill(&c.mu, func() {
		if c.slot == slot {
			c.slot = nil
		}
	}, build)
	return ent, false, err
}

// httpError pairs a build failure with the status it maps to, so error
// mapping survives the trip through a build closure.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// serveCached answers one read request from cache: mint the ETag, try
// the conditional fast path, then look up (or build) the rendered bytes
// and write them with full conditional-GET and HEAD semantics. All four
// read surfaces (list, stats, preview, render) funnel through here, so
// the header discipline — ETag, Content-Type, Content-Length, elapsed —
// is uniform by construction.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, scope, key string, cache responseCacher, build func() (*cacheEntry, error)) {
	start := time.Now()
	etag := wire.StrongETag([]byte(scope + "\x00" + key))
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm != "*" && wire.ETagMatches(inm, etag) {
		// The client already holds this epoch's bytes: 304 without
		// rendering, looking up, or even holding the cache lock.
		s.cacheHits.Add(1)
		h := w.Header()
		h.Set("ETag", etag)
		wire.SetElapsed(h, start)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	sealed := func() (*cacheEntry, error) {
		ent, err := build()
		if err != nil {
			return nil, err
		}
		ent.etag = etag
		return ent, nil
	}
	var (
		ent *cacheEntry
		hit bool
		err error
	)
	if s.NoCache {
		ent, err = sealed()
	} else {
		ent, hit, err = cache.cachedResponse(key, sealed)
	}
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			wire.WriteError(w, he.status, he.err)
		} else {
			wire.WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if hit {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	h := w.Header()
	h.Set("ETag", ent.etag)
	h.Set("Content-Type", ent.contentType)
	wire.SetElapsed(h, start)
	// Post-build conditional check: covers "*" (a representation
	// provably exists now) and clients that raced the fast path.
	if inm := r.Header.Get("If-None-Match"); inm == "*" || (inm != "" && wire.ETagMatches(inm, ent.etag)) {
		h.Del("Content-Type")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(ent.body)))
	if r.Method == http.MethodHead {
		// Identical headers to GET — ETag, Content-Type, Content-Length —
		// with no body; net/http suppresses any body on HEAD, but not
		// writing one keeps the hit path allocation-free.
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = w.Write(ent.body)
}

// CacheStats reports the response cache's cumulative hit and miss
// counts. A hit is any request served without rendering: a cached-bytes
// lookup, a singleflight wait on another request's render, or a
// fast-path 304. previewd logs these and loadgen records the hit rate
// into the serving benchmark trajectory.
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.cacheHits.Load(), s.cacheMisses.Load()
}
