// Package simcache is a singleflight-deduplicating LRU with configurable
// entry-count and approximate-byte bounds. It is the simulation result
// cache behind the experiment session and the smtsimd daemon, bounded by
// entries only; the smtsimd plan cache and the trace tier
// (internal/tracestore) use it with a byte bound.
//
// The singleflight contract: the first requester of a key computes its
// value, every concurrent requester joins that computation, and a
// completed result is served from cache until evicted. Two properties
// make eviction safe under that contract:
//
//   - In-flight calls are never evicted. A computation some goroutine
//     owns (and others wait on) always stays registered, so one key never
//     has two concurrent computations and Fulfill always finds its entry.
//     The entry bound may therefore be exceeded transiently when more
//     calls are in flight than the cache admits entries.
//   - Eviction only forgets, it never invalidates. Waiters hold the
//     *Call pointer itself; a call evicted after completion still serves
//     its value to anyone who already held it. Re-requesting an evicted
//     key simply recomputes — results are deterministic, so the recomputed
//     value is the value that was evicted.
//
// Errors memoize like results while cached: an outcome is a pure function
// of the key, so retrying a failed key could never succeed.
//
// # Cancellation
//
// Waiters cancel individually: Call.WaitCtx returns the waiter's own
// context error without disturbing the computation or other waiters.
// Creators cancel through Abandon: a worker that pops a queued call whose
// interested requesters (the contexts registered by BeginCtx) have all
// gone away may atomically unregister the entry and fail the call, so the
// computation is never started, no waiter can hang (anyone still able to
// hold the call pointer is already past its own WaitCtx cancellation),
// and a later request for the key registers a fresh computation — the
// singleflight contract survives because the check-and-remove happens
// under the same lock BeginCtx uses to join calls.
package simcache

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness, shaped for
// direct JSON emission by the smtsimd /v1/metrics endpoint.
type Stats struct {
	// Hits counts BeginCtx calls that joined an existing entry (completed or
	// in flight); Misses counts BeginCtx calls that had to register a
	// computation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts completed entries dropped to respect the bounds.
	Evictions uint64 `json:"evictions"`
	// Canceled counts calls abandoned before their computation started
	// because every interested requester's context was done.
	Canceled uint64 `json:"canceled"`
	// Entries and InFlight describe the current population; Bytes is the
	// approximate retained result size reported by the size function, 0
	// for a cache built without one (the experiments result cache, which
	// is bounded by entries only).
	Entries  int   `json:"entries"`
	InFlight int   `json:"inflight"`
	Bytes    int64 `json:"bytes"`
	// MaxEntries and MaxBytes echo the configured bounds (0 = unbounded).
	MaxEntries int   `json:"maxEntries"`
	MaxBytes   int64 `json:"maxBytes"`
}

// Call is one key's in-flight or completed computation.
type Call[V any] struct {
	done   chan struct{}
	val    V
	err    error
	settle func() // cache accounting hook, set by BeginCtx; nil once settled
}

// Fulfill publishes the result, waking all waiters. The owner of the
// call (the BeginCtx caller that saw created=true, or whoever it handed the
// call to) must call exactly one of Fulfill or Cache.Abandon.
func (c *Call[V]) Fulfill(v V, err error) {
	c.val, c.err = v, err
	if c.settle != nil {
		c.settle()
		c.settle = nil
	}
	close(c.done)
}

// abandon publishes err and wakes waiters without settling: the cache
// already unregistered the entry under its own lock.
func (c *Call[V]) abandon(err error) {
	c.err = err
	c.settle = nil
	close(c.done)
}

// WaitCtx blocks until Fulfill and returns the published result, or
// returns ctx's error as soon as ctx is done, leaving the computation
// (and every other waiter) untouched.
func (c *Call[V]) WaitCtx(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Ready reports, without blocking, whether the call has settled, so
// that WaitCtx would return at once. A streaming caller uses it to push
// buffered output to its reader before it would block.
func (c *Call[V]) Ready() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// entry is one cache slot; it lives in both the LRU list and the key map.
type entry[K comparable, V any] struct {
	key      K
	call     *Call[V]
	inflight bool
	bytes    int64
	// interest holds the context of every requester that joined the call
	// while it was in flight (BeginCtx). Abandon may drop the call only
	// when all of them are done; cleared once the call settles.
	interest []context.Context
}

// Cache coordinates and retains calls keyed by K under LRU bounds.
type Cache[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	sizeOf     func(V) int64

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	m        map[K]*list.Element
	bytes    int64
	inflight int
	hits     uint64
	misses   uint64
	evicted  uint64
	canceled uint64
}

// New builds a cache. maxEntries bounds the number of retained entries
// and maxBytes the approximate retained result bytes as measured by
// sizeOf; zero disables the respective bound (and a nil sizeOf counts
// every result as zero bytes, leaving only the entry bound active).
func New[K comparable, V any](maxEntries int, maxBytes int64, sizeOf func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		sizeOf:     sizeOf,
		ll:         list.New(),
		m:          map[K]*list.Element{},
	}
}

// BeginCtx returns key's call, registering a new computation if absent.
// created reports whether this caller registered the call and therefore
// owns computing and Fulfilling it; all other callers just WaitCtx. A hit
// (created=false) marks the entry most recently used. ctx is recorded
// against the call while it is in flight, and Abandon may drop the
// computation only once every recorded context is done. A background
// (non-cancelable) context pins the call to run unconditionally.
func (c *Cache[K, V]) BeginCtx(ctx context.Context, key K) (call *Call[V], created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		if e.inflight {
			e.interest = append(e.interest, ctx)
		}
		return e.call, false
	}
	c.misses++
	c.inflight++
	e := &entry[K, V]{
		key:      key,
		call:     &Call[V]{done: make(chan struct{})},
		inflight: true,
		interest: []context.Context{ctx},
	}
	el := c.ll.PushFront(e)
	c.m[key] = el
	e.call.settle = func() { c.settle(el) }
	return e.call, true
}

// Abandon drops an in-flight call whose interested requesters have all
// canceled, instead of computing it: the entry is unregistered (a later
// request registers a fresh computation) and the call fails with err,
// waking any waiter that has not noticed its own cancellation yet. It
// reports whether it abandoned; false — the call settled already, or some
// registered context is still live (a background context always is) —
// means the caller still owns the computation and must run and Fulfill
// it. Abandon and Fulfill are alternatives: the owner calls exactly one.
func (c *Cache[K, V]) Abandon(key K, call *Call[V], err error) bool {
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return false
	}
	e := el.Value.(*entry[K, V])
	if e.call != call || !e.inflight {
		c.mu.Unlock()
		return false
	}
	for _, ctx := range e.interest {
		if ctx.Done() == nil || ctx.Err() == nil {
			c.mu.Unlock()
			return false
		}
	}
	c.ll.Remove(el)
	delete(c.m, key)
	c.inflight--
	c.canceled++
	c.mu.Unlock()
	call.abandon(err)
	return true
}

// settle runs inside Fulfill, before waiters wake: the entry becomes
// evictable, its result bytes are accounted, and the bounds are enforced.
func (c *Cache[K, V]) settle(el *list.Element) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := el.Value.(*entry[K, V])
	e.inflight = false
	e.interest = nil
	c.inflight--
	if c.sizeOf != nil && e.call.err == nil {
		e.bytes = c.sizeOf(e.call.val)
		c.bytes += e.bytes
	}
	c.evict()
}

// evict drops least-recently-used completed entries until both bounds
// hold (or only in-flight entries remain). Caller holds mu.
func (c *Cache[K, V]) evict() {
	over := func() bool {
		if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
			return true
		}
		return c.maxBytes > 0 && c.bytes > c.maxBytes
	}
	for el := c.ll.Back(); el != nil && over(); {
		prev := el.Prev()
		if e := el.Value.(*entry[K, V]); !e.inflight {
			c.ll.Remove(el)
			delete(c.m, e.key)
			c.bytes -= e.bytes
			c.evicted++
		}
		el = prev
	}
}

// Len returns the number of registered entries (in flight or completed).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evicted,
		Canceled:   c.canceled,
		Entries:    c.ll.Len(),
		InFlight:   c.inflight,
		Bytes:      c.bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
	}
}
