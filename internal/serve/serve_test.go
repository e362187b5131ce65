package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCellSingleflight(t *testing.T) {
	var cell Cell[int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const waiters = 32
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := cell.Get(context.Background(), func(context.Context) (int, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // let every waiter join
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d, want 42", i, v)
		}
	}
	// Warm path: no further computes.
	if v, err := cell.Get(nil, func(context.Context) (int, error) {
		t.Fatal("compute ran on warm cell")
		return 0, nil
	}); err != nil || v != 42 {
		t.Fatalf("warm Get = (%d, %v)", v, err)
	}
}

func TestCellCancelLastWaiterAbortsCompute(t *testing.T) {
	var cell Cell[int]
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cell.Get(ctx, func(cctx context.Context) (int, error) {
			<-cctx.Done() // blocks until the waiter-refcount hits zero
			close(aborted)
			return 0, cctx.Err()
		})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get err = %v, want Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Get did not return after cancel")
	}
	select {
	case <-aborted:
	case <-time.After(time.Second):
		t.Fatal("compute ctx was not cancelled after last waiter left")
	}
	// The aborted attempt must not be cached: a fresh Get recomputes.
	v, err := cell.Get(context.Background(), func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Get = (%d, %v), want (7, nil)", v, err)
	}
}

func TestCellCancelOneWaiterKeepsComputeAlive(t *testing.T) {
	var cell Cell[int]
	release := make(chan struct{})
	var computeCancelled atomic.Bool
	ctx1, cancel1 := context.WithCancel(context.Background())

	patient := make(chan int, 1)
	started := make(chan struct{})
	go func() {
		v, err := cell.Get(context.Background(), func(cctx context.Context) (int, error) {
			close(started)
			<-release
			if cctx.Err() != nil {
				computeCancelled.Store(true)
			}
			return 9, nil
		})
		if err != nil {
			t.Errorf("patient waiter: %v", err)
		}
		patient <- v
	}()
	<-started
	impatientDone := make(chan error, 1)
	go func() {
		_, err := cell.Get(ctx1, func(context.Context) (int, error) {
			t.Error("second compute started despite singleflight")
			return 0, nil
		})
		impatientDone <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel1()
	if err := <-impatientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter err = %v, want Canceled", err)
	}
	close(release)
	if v := <-patient; v != 9 {
		t.Fatalf("patient waiter got %d, want 9", v)
	}
	if computeCancelled.Load() {
		t.Fatal("compute was cancelled while a waiter remained")
	}
}

func TestCellSeed(t *testing.T) {
	var cell Cell[string]
	cell.Seed("seeded")
	v, err := cell.Get(nil, func(context.Context) (string, error) {
		t.Fatal("compute ran on seeded cell")
		return "", nil
	})
	if err != nil || v != "seeded" {
		t.Fatalf("Get = (%q, %v)", v, err)
	}
	cell.Seed("later") // must not replace
	if v, _ := cell.Peek(); v != "seeded" {
		t.Fatalf("Peek after second Seed = %q, want seeded", v)
	}
}

// TestCellDrop pins Drop: the cached value goes, a compute in flight at the
// Drop still answers its waiters without caching, and later Gets compute
// afresh every time while Seed is ignored.
func TestCellDrop(t *testing.T) {
	var cell Cell[int]
	cell.Seed(1)
	release := make(chan struct{})
	started := make(chan struct{})
	got := make(chan int)
	go func() {
		cell.Drop()
		v, _ := cell.Get(nil, func(context.Context) (int, error) {
			close(started)
			<-release
			return 2, nil
		})
		got <- v
	}()
	<-started
	if _, ok := cell.Peek(); ok {
		t.Fatal("Drop left the seeded value cached")
	}
	close(release)
	if v := <-got; v != 2 {
		t.Fatalf("in-flight Get = %d, want 2", v)
	}
	cell.Seed(3)
	if _, ok := cell.Peek(); ok {
		t.Fatal("a dropped cell cached a compute or a Seed")
	}
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := cell.Get(nil, func(context.Context) (int, error) { calls++; return 4, nil })
		if err != nil || v != 4 {
			t.Fatalf("Get = (%d, %v), want 4", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("%d computes for two sequential Gets on a dropped cell, want 2", calls)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(2, 64)
	var inFlight, maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			cur := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 2 {
		t.Fatalf("max in-flight = %d, want <= 2", m)
	}
}

func TestGateOverload(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(context.Background()) }()
	time.Sleep(2 * time.Millisecond) // let the waiter enqueue
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third Acquire err = %v, want ErrOverloaded", err)
	}
	g.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued Acquire err = %v", err)
	}
	g.Release()
	// Both slots cycled; the gate must be usable again.
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestGateDeadlineInQueue(t *testing.T) {
	g := NewGate(1, 4)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire err = %v, want DeadlineExceeded", err)
	}
	g.Release()
	// The expired waiter must have left the queue: the slot is free again.
	if err := g.Acquire(nil); err != nil {
		t.Fatalf("Acquire after expiry: %v", err)
	}
	g.Release()
}

func TestCellStats(t *testing.T) {
	var st CellStats
	var cell Cell[int]
	cell.SetStats(&st)
	if _, err := cell.Get(nil, func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if h, m := st.Counts(); h != 0 || m != 1 {
		t.Fatalf("after cold Get: hits=%d misses=%d, want 0/1", h, m)
	}
	for i := 0; i < 3; i++ {
		if _, err := cell.Get(nil, func(context.Context) (int, error) {
			t.Fatal("compute ran on warm cell")
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := st.Counts(); h != 3 || m != 1 {
		t.Fatalf("after warm Gets: hits=%d misses=%d, want 3/1", h, m)
	}

	// Joining an in-flight compute counts as a hit for every joiner.
	var joined Cell[int]
	joined.SetStats(&st)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		joined.Get(nil, func(context.Context) (int, error) {
			close(started)
			<-release
			return 2, nil
		})
	}()
	<-started
	joinDone := make(chan struct{})
	go func() {
		defer close(joinDone)
		joined.Get(nil, func(context.Context) (int, error) {
			t.Error("second compute started despite singleflight")
			return 0, nil
		})
	}()
	// The joiner increments the hit counter before parking on the shared
	// call, so the count is observable without finishing the compute.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h, _ := st.Counts(); h == 4 {
			break
		}
		if time.Now().After(deadline) {
			h, m := st.Counts()
			t.Fatalf("joiner not counted: hits=%d misses=%d, want 4/2", h, m)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	<-joinDone
	if h, m := st.Counts(); h != 4 || m != 2 {
		t.Fatalf("final: hits=%d misses=%d, want 4/2", h, m)
	}
}

// TestCellGetExpiredContext: a Get whose context is done already returns
// the context's error from a cold cell without starting a compute, joining
// one in flight or counting a lookup, and still returns a warm cell's value.
func TestCellGetExpiredContext(t *testing.T) {
	var st CellStats
	var cell Cell[int]
	cell.SetStats(&st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for _, c := range []context.Context{ctx, expired} {
		for i := 0; i < 100; i++ {
			_, err := cell.Get(c, func(context.Context) (int, error) {
				t.Error("compute ran for a done context")
				return 1, nil
			})
			if !errors.Is(err, c.Err()) {
				t.Fatalf("Get = %v, want %v", err, c.Err())
			}
		}
	}
	if h, m := st.Counts(); h != 0 || m != 0 {
		t.Fatalf("hits=%d misses=%d after expired Gets, want 0/0", h, m)
	}

	// An expired Get does not join a compute in flight either.
	release, started := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cell.Get(nil, func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, err := cell.Get(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get during a compute = %v, want %v", err, context.Canceled)
	}
	close(release)
	<-done
	if v, err := cell.Get(ctx, nil); err != nil || v != 7 {
		t.Fatalf("warm Get with a done context = %d, %v, want 7, nil", v, err)
	}
}

// TestGateAcquireCancelHandoffRace choreographs the narrow interleaving in
// which a queued Acquire's context is cancelled at the same moment Release
// hands it the slot: the waiter wakes on the cancellation branch, finds its
// channel already gone from the queue (the handoff won), and must pass the
// slot on instead of leaking it. The fuzzer only reaches this branch
// probabilistically; here it is forced by freezing the gate's mutex while
// performing the handoff exactly as Release would.
func TestGateAcquireCancelHandoffRace(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Acquire(context.Background()); err != nil { // occupy the slot
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- g.Acquire(ctx) }()

	// Wait for the waiter to enqueue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := len(g.queue)
		g.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	// Freeze the gate and fire the cancellation: the waiter's select has
	// exactly one ready case (ctx.Done — its channel is not closed yet), so
	// it deterministically enters the cancellation branch and parks on g.mu.
	g.mu.Lock()
	cancel()
	time.Sleep(50 * time.Millisecond)
	// Perform the handoff exactly as Release would, while the waiter is
	// parked: pop its channel and close it. The waiter's dequeue scan will
	// then miss, forcing the "Release already handed us the slot" branch.
	ch := g.queue[0]
	g.queue = g.queue[1:]
	close(ch)
	g.mu.Unlock()

	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	// The handed-off slot must have been passed on, not leaked: the gate
	// drains back to full capacity (the manual close played the part of the
	// slot holder's Release).
	g.mu.Lock()
	free, qlen := g.free, len(g.queue)
	g.mu.Unlock()
	if free != 1 || qlen != 0 {
		t.Fatalf("gate after handoff race: free=%d queue=%d, want free=1 queue=0", free, qlen)
	}
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire on drained gate: %v", err)
	}
	g.Release()
}

func TestGateFIFO(t *testing.T) {
	g := NewGate(1, 8)
	if err := g.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Release()
		}(i)
		time.Sleep(2 * time.Millisecond) // enqueue in index order
	}
	g.Release()
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("queue served out of FIFO order: %v", order)
		}
	}
}
