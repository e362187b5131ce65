package aquila

// Cancellation and serving-layer coverage for the dynamic path: the kernel
// cancellation tables re-run over an engine that has been promoted by
// deletions (a cancelled attempt must leave no partial state — the retry
// must match the oracle on the shrunken graph), and an 8-goroutine
// reader/writer hammer where every epoch is Cut-heavy: the writer churns
// bridge deletions while readers verify their pinned snapshots are
// internally consistent and never torn.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/verify"
)

// dynCancelEngine builds an engine, then promotes it to the dynamic layer by
// deleting a slice of its edges, so every kernel under test reads a graph
// merged from the base CSRs and the signed delta.
func dynCancelEngine(t *testing.T, directed bool, threads int) (*Engine, *Undirected, *Directed) {
	t.Helper()
	var e *Engine
	if directed {
		e = NewDirectedEngine(gen.RMAT(11, 8, 17), Options{Threads: threads})
	} else {
		e = NewEngine(gen.RandomUndirected(2000, 6000, 17), Options{Threads: threads})
	}
	// Delete every 7th edge of the undirected view: enough churn that the
	// CSRs must be rebuilt from the forest, with plenty of splits.
	eps := e.Undirected().EdgeEndpoints()
	batch := make([]Update, 0, len(eps)/7+1)
	for i := 0; i < len(eps); i += 7 {
		batch = append(batch, Delete(eps[i][0], eps[i][1]))
	}
	if _, err := e.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if !e.Dynamic() {
		t.Fatal("engine not promoted")
	}
	// The materialized views after deletion are the oracle's input.
	if directed {
		return e, e.Undirected(), e.Directed()
	}
	return e, e.Undirected(), nil
}

// TestDynKernelPreCancelled: on the promoted engine, a context cancelled
// before the call surfaces context.Canceled from every kernel, and the retry
// with a live context matches the oracle on the post-delete graph — the
// cancelled attempt published no partial state.
func TestDynKernelPreCancelled(t *testing.T) {
	for _, tc := range kernelCases {
		for _, threads := range []int{1, 4} {
			tc, threads := tc, threads
			t.Run(tc.name, func(t *testing.T) {
				e, und, dir := dynCancelEngine(t, tc.directed, threads)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := tc.run(e, ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
				}
				tc.check(t, e, und, dir)
			})
		}
	}
}

// TestDynKernelMidFlightCancel cancels while the kernel runs on the promoted
// engine: prompt return with a context error (or a winning result), and a
// correct engine afterwards.
func TestDynKernelMidFlightCancel(t *testing.T) {
	for _, tc := range kernelCases {
		for _, threads := range []int{1, 4} {
			tc, threads := tc, threads
			t.Run(tc.name, func(t *testing.T) {
				e, und, dir := dynCancelEngine(t, tc.directed, threads)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- tc.run(e, ctx) }()
				time.Sleep(200 * time.Microsecond)
				cancel()
				select {
				case err := <-done:
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Fatalf("threads=%d: err = %v, want nil or Canceled", threads, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("threads=%d: kernel did not return after cancel", threads)
				}
				tc.check(t, e, und, dir)
			})
		}
	}
}

// TestDynKernelDeadline runs every kernel on the promoted engine under an
// already-expired deadline.
func TestDynKernelDeadline(t *testing.T) {
	for _, tc := range kernelCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e, und, dir := dynCancelEngine(t, tc.directed, 2)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			if err := tc.run(e, ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			tc.check(t, e, und, dir)
		})
	}
}

// TestServeDynCutHeavyHammer races 8 reader goroutines against a writer
// whose every batch cuts (and re-adds) bridges through the serving layer.
// Each reader pins snapshots and checks them for torn state: within one
// snapshot, CC labels, CountCC, and pairwise Connected answers must agree
// with each other exactly, whatever epoch the snapshot captured. Afterwards
// the final epoch is checked against a from-scratch oracle. Run under -race
// this is the deletion analog of the insert-only concurrency proof.
func TestServeDynCutHeavyHammer(t *testing.T) {
	const (
		half    = 120
		n       = 2 * half
		readers = 8
		rounds  = 60
	)
	// Two rings with chords, one bridge — the writer churns the bridge and
	// intra-half edges, so almost every epoch both splits and merges.
	var base []Edge
	for i := 0; i < half; i++ {
		base = append(base,
			Edge{U: V(i), V: V((i + 1) % half)},
			Edge{U: V(half + i), V: V(half + (i+1)%half)})
	}
	rng := gen.NewRNG(5)
	for i := 0; i < half/2; i++ {
		a, b := V(rng.Intn(half)), V(rng.Intn(half))
		base = append(base, Edge{U: a, V: b}, Edge{U: V(half) + a, V: V(half) + b})
	}
	eng := NewEngine(NewUndirected(n, base), Options{Threads: 2})
	srv := NewServer(eng, ServerConfig{MaxQueue: 256})

	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(id) + 900)
			for !done.Load() {
				sn := srv.Acquire()
				res, err := sn.CC(ctx)
				if err != nil {
					errc <- "snapshot CC failed: " + err.Error()
					return
				}
				cnt, err := sn.CountCC(ctx)
				if err != nil {
					errc <- "snapshot CountCC failed: " + err.Error()
					return
				}
				if got := distinct(res.Label); got != cnt {
					errc <- "torn snapshot: CC labels and CountCC disagree"
					return
				}
				for j := 0; j < 8; j++ {
					u := V(rng.Intn(n))
					v := V(rng.Intn(n))
					conn, err := sn.Connected(ctx, u, v)
					if err != nil {
						errc <- "snapshot Connected failed: " + err.Error()
						return
					}
					if conn != (res.Label[u] == res.Label[v]) {
						errc <- "torn snapshot: Connected disagrees with CC labels"
						return
					}
				}
			}
		}(r)
	}

	o := newDynEngineOracle(n, false)
	for _, e := range base {
		k := [2]V{e.U, e.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		o.und[k] = struct{}{}
	}
	wrng := gen.NewRNG(31)
	bridgeUp := false
	for round := 0; round < rounds; round++ {
		batch := make([]Update, 0, 8)
		// Toggle the bridge: every other epoch splits the graph in two.
		bu, bv := V(0), V(half)
		if bridgeUp {
			batch = append(batch, Delete(bu, bv))
		} else {
			batch = append(batch, Insert(bu, bv))
		}
		bridgeUp = !bridgeUp
		// Cut-heavy intra-half churn: delete a live edge, re-add it.
		for j := 0; j < 3; j++ {
			if len(o.und) == 0 {
				break
			}
			var k [2]V
			for k = range o.und {
				break
			}
			batch = append(batch, Delete(k[0], k[1]), Insert(k[0], k[1]))
		}
		if wrng.Intn(4) == 0 { // occasional genuinely new edge
			batch = append(batch, Insert(V(wrng.Intn(n)), V(wrng.Intn(n))))
		}
		if _, err := srv.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}

	sn := srv.Acquire()
	res, err := sn.CC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.SamePartition(res.Label, o.labels()); err != nil {
		t.Fatalf("final epoch diverged from oracle: %v", err)
	}
	if got, want := srv.Epoch(), uint64(rounds); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
	// Spot-check the oracle agrees with a from-scratch serial DFS engine.
	if got, want := distinct(res.Label), distinct(serialdfs.CC(eng.Undirected())); got != want {
		t.Fatalf("final CountCC = %d, serial oracle %d", got, want)
	}
}
