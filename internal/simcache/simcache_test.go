package simcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestSingleComputationManyWaiters(t *testing.T) {
	defer leakcheck.Check(t)
	g := New[string, int](0, 0, nil)
	var computed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, created := g.BeginCtx(context.Background(), "k")
			if created {
				computed.Add(1)
				c.Fulfill(42, nil)
			}
			v, err := c.WaitCtx(context.Background())
			if v != 42 || err != nil {
				t.Errorf("WaitCtx = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if n := g.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1", n)
	}
	st := g.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 1 miss + 31 hits", st)
	}
}

func TestErrorsMemoizedWhileCached(t *testing.T) {
	g := New[int, string](0, 0, nil)
	boom := errors.New("boom")
	c, created := g.BeginCtx(context.Background(), 7)
	if !created {
		t.Fatal("first BeginCtx not created")
	}
	c.Fulfill("", boom)
	c2, created := g.BeginCtx(context.Background(), 7)
	if created {
		t.Fatal("second BeginCtx re-created")
	}
	if _, err := c2.WaitCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// fill computes key -> val synchronously, returning whether it was a miss.
func fill(t *testing.T, g *Cache[string, int], key string, val int) bool {
	t.Helper()
	c, created := g.BeginCtx(context.Background(), key)
	if created {
		c.Fulfill(val, nil)
	}
	v, err := c.WaitCtx(context.Background())
	if err != nil || v != val {
		t.Fatalf("WaitCtx(%q) = %d, %v; want %d", key, v, err, val)
	}
	return created
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	g := New[string, int](2, 0, nil)
	fill(t, g, "a", 1)
	fill(t, g, "b", 2)
	fill(t, g, "a", 1) // touch a: b is now LRU
	fill(t, g, "c", 3) // evicts b
	if n := g.Stats().Entries; n != 2 {
		t.Fatalf("Entries = %d, want 2", n)
	}
	if created := fill(t, g, "a", 1); created {
		t.Error("a was evicted; want b (LRU) evicted")
	}
	if created := fill(t, g, "b", 2); !created {
		t.Error("b survived; want b (LRU) evicted")
	}
	if st := g.Stats(); st.Evictions < 1 {
		t.Errorf("stats = %+v, want evictions >= 1", st)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	g := New[string, int](0, 100, func(v int) int64 { return int64(v) })
	fill(t, g, "a", 60)
	fill(t, g, "b", 60) // 120 bytes > 100: evicts a
	st := g.Stats()
	if st.Entries != 1 || st.Bytes != 60 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 60 bytes / 1 eviction", st)
	}
	if created := fill(t, g, "b", 60); created {
		t.Error("b (just inserted) was evicted; want a")
	}
}

// TestInFlightNeverEvicted pins the safety property eviction relies on:
// a call some goroutine owns stays registered however far the bounds are
// exceeded, so a key never has two concurrent computations.
func TestInFlightNeverEvicted(t *testing.T) {
	g := New[string, int](1, 0, nil)
	slow, created := g.BeginCtx(context.Background(), "slow")
	if !created {
		t.Fatal("slow not created")
	}
	for i := 0; i < 8; i++ {
		fill(t, g, fmt.Sprintf("k%d", i), i)
	}
	if st := g.Stats(); st.InFlight != 1 {
		t.Fatalf("stats = %+v, want 1 in flight", st)
	}
	again, created := g.BeginCtx(context.Background(), "slow")
	if created {
		t.Fatal("in-flight call was evicted: second computation registered")
	}
	if again != slow {
		t.Fatal("BeginCtx returned a different call for an in-flight key")
	}
	slow.Fulfill(99, nil)
	// Completing the over-bound in-flight entry trims back to the bound.
	if n := g.Stats().Entries; n != 1 {
		t.Fatalf("Entries after settle = %d, want 1", n)
	}
	if v, err := again.WaitCtx(context.Background()); v != 99 || err != nil {
		t.Fatalf("WaitCtx = %d, %v", v, err)
	}
}

// TestEvictedCallStillServesHolders: eviction forgets, it never
// invalidates — a waiter holding the call reads its value regardless.
func TestEvictedCallStillServesHolders(t *testing.T) {
	g := New[string, int](1, 0, nil)
	c, created := g.BeginCtx(context.Background(), "x")
	if !created {
		t.Fatal("x not created")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := c.WaitCtx(context.Background()); v != 5 || err != nil {
			t.Errorf("late waiter: %d, %v", v, err)
		}
	}()
	c.Fulfill(5, nil)
	fill(t, g, "y", 6) // evicts x
	<-done
	if created := fill(t, g, "x", 5); !created {
		t.Error("x still cached; want recomputed after eviction")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	g := New[int, int](0, 0, func(int) int64 { return 1 << 20 })
	for i := 0; i < 256; i++ {
		c, created := g.BeginCtx(context.Background(), i)
		if !created {
			t.Fatalf("key %d already present", i)
		}
		c.Fulfill(i, nil)
	}
	st := g.Stats()
	if st.Entries != 256 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 256 entries and no evictions", st)
	}
}

// TestWaitCtxCancelIsPerWaiter: a waiter's cancellation unblocks that
// waiter alone — the computation and every other waiter are untouched,
// and the fulfilled value still reaches anyone who stayed.
func TestWaitCtxCancelIsPerWaiter(t *testing.T) {
	defer leakcheck.Check(t)
	g := New[string, int](0, 0, nil)
	c, created := g.BeginCtx(context.Background(), "k")
	if !created {
		t.Fatal("first BeginCtx not created")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.WaitCtx(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx on canceled ctx = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("canceled WaitCtx blocked for %v", d)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := c.WaitCtx(context.Background()); v != 9 || err != nil {
			t.Errorf("surviving waiter: %d, %v; want 9, nil", v, err)
		}
	}()
	c.Fulfill(9, nil)
	<-done
	if v, err := c.WaitCtx(context.Background()); v != 9 || err != nil {
		t.Fatalf("WaitCtx after Fulfill = %d, %v", v, err)
	}
}

// TestReadyNeverBlocks: Ready reports false while a call is in flight
// and true once it settles, whether fulfilled or abandoned.
func TestReadyNeverBlocks(t *testing.T) {
	g := New[string, int](0, 0, nil)
	c, _ := g.BeginCtx(context.Background(), "k")
	if c.Ready() {
		t.Fatal("Ready = true for an in-flight call")
	}
	c.Fulfill(1, nil)
	if !c.Ready() {
		t.Fatal("Ready = false after Fulfill")
	}
	ctx, cancel := context.WithCancel(context.Background())
	d, _ := g.BeginCtx(ctx, "gone")
	cancel()
	if !g.Abandon("gone", d, context.Canceled) || !d.Ready() {
		t.Fatal("Ready = false after Abandon")
	}
}

// TestAbandonDropsDeadCall: when every registered requester has
// canceled, Abandon unregisters the entry (a later request recomputes
// from scratch) and fails the call so no waiter can hang.
func TestAbandonDropsDeadCall(t *testing.T) {
	g := New[string, int](0, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	c, created := g.BeginCtx(ctx, "k")
	if !created {
		t.Fatal("not created")
	}
	cancel()
	if !g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon = false for a call whose only requester canceled")
	}
	if _, err := c.WaitCtx(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call WaitCtx err = %v, want context.Canceled", err)
	}
	st := g.Stats()
	if st.Canceled != 1 || st.Entries != 0 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 canceled, empty cache", st)
	}
	// The key is free again: the singleflight contract survives.
	if created := fill(t, g, "k", 5); !created {
		t.Error("abandoned key did not register a fresh computation")
	}
}

// TestAbandonAfterCreatorAndJoinerCancel: a joiner's interest is
// registered under the joiner's own context, so once the creator and
// the joiner have both cancelled, Abandon drops the call.
func TestAbandonAfterCreatorAndJoinerCancel(t *testing.T) {
	g := New[string, int](0, 0, nil)
	creator, cancelCreator := context.WithCancel(context.Background())
	joiner, cancelJoiner := context.WithCancel(context.Background())
	c, created := g.BeginCtx(creator, "k")
	if !created {
		t.Fatal("not created")
	}
	if j, created := g.BeginCtx(joiner, "k"); created || j != c {
		t.Fatal("join did not return the in-flight call")
	}
	cancelCreator()
	if g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon dropped a call the live joiner still wants")
	}
	cancelJoiner()
	if !g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon = false after the creator and the joiner both cancelled")
	}
	if st := g.Stats(); st.Canceled != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 canceled, empty cache", st)
	}
}

// TestAbandonRefusedWhileAnyRequesterLives: one live joiner pins the
// computation, however many other requesters canceled.
func TestAbandonRefusedWhileAnyRequesterLives(t *testing.T) {
	g := New[string, int](0, 0, nil)
	dead, cancel := context.WithCancel(context.Background())
	c, created := g.BeginCtx(dead, "k")
	if !created {
		t.Fatal("not created")
	}
	live := context.Background()
	if _, created := g.BeginCtx(live, "k"); created {
		t.Fatal("join re-created")
	}
	cancel()
	if g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon dropped a call a live requester still wants")
	}
	c.Fulfill(7, nil)
	if v, err := c.WaitCtx(context.Background()); v != 7 || err != nil {
		t.Fatalf("WaitCtx = %d, %v", v, err)
	}
	if st := g.Stats(); st.Canceled != 0 {
		t.Fatalf("stats = %+v, want no cancellations", st)
	}
}

// TestAbandonRefusedWithoutContext: a background context pins the call to
// run unconditionally, and a settled call can never be abandoned.
func TestAbandonRefusedWithoutContext(t *testing.T) {
	g := New[string, int](0, 0, nil)
	c, _ := g.BeginCtx(context.Background(), "k")
	if g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon dropped a background-context call")
	}
	c.Fulfill(1, nil)
	if g.Abandon("k", c, context.Canceled) {
		t.Fatal("Abandon dropped a settled call")
	}
	if g.Abandon("missing", c, context.Canceled) {
		t.Fatal("Abandon matched a key that was never registered")
	}
	// Every refusal returns the cache unlocked and unchanged.
	if n := g.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d after refused abandons, want 1", n)
	}
}

// TestConcurrentChurn exercises eviction racing BeginCtx/Fulfill under -race.
func TestConcurrentChurn(t *testing.T) {
	defer leakcheck.Check(t)
	g := New[int, int](8, 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (w*31 + i) % 40
				c, created := g.BeginCtx(context.Background(), key)
				if created {
					c.Fulfill(key*2, nil)
				}
				if v, err := c.WaitCtx(context.Background()); err != nil || v != key*2 {
					t.Errorf("key %d: %d, %v", key, v, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := g.Stats().Entries; n > 8 {
		t.Fatalf("Entries = %d, want <= 8", n)
	}
	st := g.Stats()
	if st.InFlight != 0 {
		t.Fatalf("stats = %+v, want no in-flight calls", st)
	}
}
