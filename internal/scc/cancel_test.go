package scc

// Cancellation tables for the SCC matrix cells, mirroring the CC tables:
// every cell must honor Options.Ctx at chunk boundaries (pre-cancelled,
// mid-flight, expired deadline) — for multireach that means through the
// hash-bag propagation rounds — and a cancelled attempt must leave nothing
// behind: the clean retry on the same graph matches the oracle exactly.
// Solve itself never caches, so the property proved here is that cancelled
// partial state is confined to the discarded Result.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
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

// TestMatrixCancellation: every cell, and the retired fwbw row, × every
// cancellation mode × p ∈ {1, 4}.
// A cancelled Solve returns (possibly partial — never consulted), and the
// immediate clean re-run must match the serial oracle, proving no shared
// state survived the cancelled attempt.
func TestMatrixCancellation(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 120, MinSize: 2, MaxSize: 24, ExtraChords: 1, Seed: 17})
	want := serialdfs.SCC(g)
	type row struct {
		name       string
		pol        Policy
		noAdaptive bool
	}
	var rows []row
	for _, pol := range Policies() {
		rows = append(rows, row{name: pol.String(), pol: pol})
	}
	// The retired fwbw cell was the coloring cell under Options.NoAdaptive;
	// its rows keep the name and run that repeated-FW-BW loop.
	rows = append(rows, row{name: "fwbw", pol: PolicyColoring, noAdaptive: true})
	for _, r := range rows {
		for _, mode := range []cancelMode{preCancelled, midFlight, deadline} {
			for _, p := range []int{1, 4} {
				pol, mode, p := r.pol, mode, p
				t.Run(fmt.Sprintf("%s/%v/p=%d", r.name, mode, p), func(t *testing.T) {
					ctx, cancel := cancelCtx(mode)
					defer cancel()
					if mode == midFlight {
						returned := make(chan struct{})
						go func() {
							Solve(g, pol, Options{Threads: p, Ctx: ctx, NoAdaptive: r.noAdaptive})
							close(returned)
						}()
						time.Sleep(200 * time.Microsecond)
						cancel()
						select {
						case <-returned:
						case <-time.After(10 * time.Second):
							t.Fatalf("p=%d: Solve did not return after cancel", p)
						}
					} else {
						// Pre-cancelled / expired deadline: Solve must return
						// promptly; the result is partial by contract and
						// discarded here.
						Solve(g, pol, Options{Threads: p, Ctx: ctx, NoAdaptive: r.noAdaptive})
						if ctx.Err() == nil {
							t.Fatalf("ctx.Err() = nil for mode %v", mode)
						}
					}
					// Clean retry: exact min-id oracle labels.
					res := Solve(g, pol, Options{Threads: p, NoAdaptive: r.noAdaptive})
					for v := range want {
						if res.Label[v] != want[v] {
							t.Fatalf("p=%d: retry after %v diverged at vertex %d", p, mode, v)
						}
					}
				})
			}
		}
	}
}

// TestPreCancelledMultiReachDoesNoRounds: a pre-cancelled context must stop
// the multireach loop before its first pivot batch — the stats prove the
// hash-bag rounds never started.
func TestPreCancelledMultiReachDoesNoRounds(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 400, MinSize: 8, MaxSize: 64, Seed: 19})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Solve(g, PolicyMultiReach, Options{Threads: 4, Ctx: ctx})
	if res.Stats.MultiReachRounds != 0 || res.Stats.MultiReachPivots != 0 {
		t.Errorf("pre-cancelled run still did rounds: %+v", res.Stats)
	}
}
