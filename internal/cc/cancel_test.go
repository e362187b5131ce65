package cc

// Cancellation tables for the matrix cells, mirroring the kernel tables in
// the root package's cancel_test.go: every cell must honor Options.Ctx at
// chunk boundaries (pre-cancelled, mid-flight, expired deadline), and a
// cancelled attempt must leave nothing behind — the clean retry on the same
// graph matches the oracle exactly. Solve itself never caches, so the
// property proved here is that cancelled partial state is confined to the
// discarded Result.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/verify"
)

type cancelMode int

const (
	preCancelled cancelMode = iota
	midFlight
	deadline
)

func (m cancelMode) String() string {
	return [...]string{"pre-cancelled", "mid-flight", "deadline"}[m]
}

func cancelCtx(m cancelMode) (context.Context, context.CancelFunc) {
	switch m {
	case preCancelled:
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	case deadline:
		return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	default: // midFlight: caller cancels after a short delay
		return context.WithCancel(context.Background())
	}
}

// TestMatrixCancellation: every row of matrixRows × every cancellation mode
// × p ∈ {1, 4}, through both entries: Solve on an undirected graph and
// SolveDirected on a directed one. A cancelled solve returns (possibly partial — never
// consulted), and the immediate clean re-run must match the serial oracle,
// proving no shared state survived the cancelled attempt.
func TestMatrixCancellation(t *testing.T) {
	g := gen.RandomUndirected(3000, 9000, 29)
	d := gen.Random(3000, 6000, 29)
	entries := []struct {
		name  string
		solve func(Policy, Options) *Result
		want  []uint32
	}{
		{"undirected", func(pol Policy, opt Options) *Result { return Solve(g, pol, opt) }, serialdfs.CC(g)},
		{"directed", func(pol Policy, opt Options) *Result { return SolveDirected(d, pol, opt) }, serialdfs.WCC(d)},
	}
	for _, row := range matrixRows(t) {
		for _, mode := range []cancelMode{preCancelled, midFlight, deadline} {
			for _, p := range []int{1, 4} {
				pol, mode, p := row.pol, mode, p
				t.Run(fmt.Sprintf("%s/%v/p=%d", row.name, mode, p), func(t *testing.T) {
					for _, en := range entries {
						ctx, cancel := cancelCtx(mode)
						if mode == midFlight {
							returned := make(chan struct{})
							go func() {
								en.solve(pol, Options{Threads: p, Ctx: ctx})
								close(returned)
							}()
							time.Sleep(200 * time.Microsecond)
							cancel()
							select {
							case <-returned:
							case <-time.After(10 * time.Second):
								t.Fatalf("%s p=%d: solve did not return after cancel", en.name, p)
							}
						} else {
							// Pre-cancelled / expired deadline: the solve must
							// return promptly without touching most of the
							// graph; the result is partial by contract and
							// discarded here.
							en.solve(pol, Options{Threads: p, Ctx: ctx})
							if ctx.Err() == nil {
								t.Fatalf("ctx.Err() = nil for mode %v", mode)
							}
						}
						cancel()
						// Clean retry: identical oracle partition, exact min-ids.
						res := en.solve(pol, Options{Threads: p})
						if err := verify.SamePartition(res.Label, en.want); err != nil {
							t.Fatalf("%s p=%d: retry after %v diverged: %v", en.name, p, mode, err)
						}
						for v := range en.want {
							if res.Label[v] != en.want[v] {
								t.Fatalf("%s p=%d: retry Label[%d] = %d, want %d", en.name, p, v, res.Label[v], en.want[v])
							}
						}
					}
				})
			}
		}
	}
}

// TestPreCancelledDoesNoFinishWork: a pre-cancelled context must stop the
// union-find cells at the first chunk boundary — the finish phase scans at
// most a few chunks, not the whole graph.
func TestPreCancelledDoesNoFinishWork(t *testing.T) {
	g := gen.RandomUndirected(200000, 400000, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pol := range []Policy{
		{Sampling: SampleNone, Finish: FinishUFAsync},
		{Sampling: SampleNone, Finish: FinishUFRem},
	} {
		res := Solve(g, pol, Options{Threads: 4, Ctx: ctx})
		// Dynamic scheduling may admit up to one chunk per worker before the
		// workers observe done.
		if res.Stats.FinishRows > 8*sampleChunk {
			t.Errorf("%v: FinishRows = %d on a pre-cancelled run", pol, res.Stats.FinishRows)
		}
	}
}
