package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// CellStats accumulates singleflight telemetry across any number of cells: a
// hit is a Get answered from the cached value or by joining an in-flight
// compute, a miss is a Get that had to start the compute itself. One
// collector is typically shared by every cell of a serving layer (see
// Cell.SetStats) so a front-end can report an aggregate hit rate. The zero
// value is ready to use; all methods are safe for concurrent use.
type CellStats struct {
	hits, misses atomic.Uint64
}

// Counts returns the accumulated hit and miss totals.
func (s *CellStats) Counts() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// call is one in-flight compute attempt shared by every waiter that joined
// while it ran.
type call[T any] struct {
	done    chan struct{} // closed when the compute returns
	val     T
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Cell is a lazily computed, singleflighted value: the first Get triggers the
// compute and every Get that arrives while it runs joins as a waiter and
// shares the result. Cancellation is waiter-refcounted — the compute's
// context is cancelled only when every waiter has given up, so one impatient
// client never aborts work others still want. A cancelled or failed compute
// is not cached: the next Get retries from scratch.
//
// The zero value is ready to use. A Cell is safe for concurrent use.
type Cell[T any] struct {
	mu      sync.Mutex
	has     bool
	dropped bool // set by Drop: values are shared with waiters, never cached
	val     T
	cur     *call[T]
	stats   *CellStats
}

// SetStats attaches st as the cell's telemetry collector (nil detaches).
// Call it once after construction, before the cell is queried; Peek and Seed
// are never counted, only Get's hit-or-miss outcome and Cached's hits.
func (c *Cell[T]) SetStats(st *CellStats) {
	c.mu.Lock()
	c.stats = st
	c.mu.Unlock()
}

// Get returns the cell's value, computing it via compute if needed. The
// compute receives a private context that is cancelled once all waiters have
// abandoned the call; it must return promptly after cancellation (partial
// results are discarded). Get returns ctx.Err() if ctx is done before the
// shared compute finishes — at once, without starting or joining a compute
// and without counting a hit or a miss, if ctx is done already and no value
// is cached. A nil ctx never cancels.
func (c *Cell[T]) Get(ctx context.Context, compute func(context.Context) (T, error)) (T, error) {
	c.mu.Lock()
	if c.has {
		if c.stats != nil {
			c.stats.hits.Add(1)
		}
		v := c.val
		c.mu.Unlock()
		return v, nil
	}
	if err := ctxErr(ctx); err != nil {
		// Selecting on an expired ctx against a compute that may finish
		// first would answer at random.
		c.mu.Unlock()
		var zero T
		return zero, err
	}
	cl := c.cur
	if st := c.stats; st != nil {
		if cl == nil {
			st.misses.Add(1)
		} else {
			st.hits.Add(1)
		}
	}
	if cl == nil {
		cctx, cancel := context.WithCancel(context.Background())
		cl = &call[T]{done: make(chan struct{}), cancel: cancel}
		c.cur = cl
		go func() {
			v, err := compute(cctx)
			c.mu.Lock()
			cl.val, cl.err = v, err
			if err == nil && !c.has && !c.dropped {
				c.has, c.val = true, v
			}
			if c.cur == cl {
				c.cur = nil
			}
			c.mu.Unlock()
			cancel() // release the context's resources
			close(cl.done)
		}()
	}
	cl.waiters++
	c.mu.Unlock()

	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctxDone(ctx):
		c.mu.Lock()
		cl.waiters--
		last := cl.waiters == 0
		if last && c.cur == cl {
			// Detach the doomed call so a Get arriving after this point
			// starts a fresh compute instead of inheriting the cancellation.
			c.cur = nil
		}
		c.mu.Unlock()
		if last {
			// Every waiter has left: abort the compute so the kernel stops
			// burning cores on an answer nobody wants. The attempt is not
			// cached, so a later Get recomputes.
			cl.cancel()
		}
		var zero T
		return zero, ctxErr(ctx)
	}
}

// Cached is Get's cached branch alone: it returns the cached value and counts
// the lookup as a hit, as Get would. On a miss it counts nothing, so the Get
// that follows counts the lookup once. It lets a hot caller skip building a
// compute function for a warm cell.
func (c *Cell[T]) Cached() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.has && c.stats != nil {
		c.stats.hits.Add(1)
	}
	return c.val, c.has
}

// Peek returns the cached value without triggering a compute.
func (c *Cell[T]) Peek() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val, c.has
}

// Seed stores v as the cell's value if nothing is cached yet. It never
// replaces an existing value and does not interrupt an in-flight compute
// (whose waiters keep their shared result; later Gets see the seed or the
// compute's value, whichever landed first).
func (c *Cell[T]) Seed(v T) {
	c.mu.Lock()
	if !c.has && !c.dropped {
		c.has, c.val = true, v
	}
	c.mu.Unlock()
}

// Drop discards the cached value and stops the cell from caching for good.
// Later Gets still coalesce concurrent callers into one compute, but its
// result reaches only those waiters; a compute in flight at the Drop lands
// the same way, and Seed becomes a no-op. It is for values too large to
// keep once their askers are expected to have moved on.
func (c *Cell[T]) Drop() {
	c.mu.Lock()
	var zero T
	c.has, c.val, c.dropped = false, zero, true
	c.mu.Unlock()
}
