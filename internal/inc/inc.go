// Package inc implements Aquila's incremental-connectivity layer: a
// concurrent union-find over the vertex set that absorbs batches of edge
// insertions in parallel and answers connectivity queries without rerunning
// the static decomposition pipeline — the ConnectIt observation (Dhulipala
// et al., 2020) that union-find connectivity extends cleanly to incremental
// edge batches, applied to the paper's query engine.
//
// A State is seeded from a static CC labeling (each vertex's parent is its
// component's minimum member), so every query right after seeding costs a
// single pointer chase. Batches union their endpoint pairs with the CAS
// hook-under-smaller idiom of internal/unionfind, which keeps labels
// canonical — the representative of every component remains its minimum
// vertex id, exactly the form cc.Run produces — and guarantees the CAS loops
// terminate (roots only ever decrease). Union by rank would give marginally
// shallower trees but destroys canonical labels, so Aquila deliberately
// trades it for deterministic minimum-id representatives; path halving in
// Find keeps trees flat in practice.
//
// Edge deletions are out of scope: connectivity only ever grows under a
// State, which is what makes answering queries straight from the union-find
// sound (once connected, never disconnected). Callers that need deletions
// rebuild via the static pipeline instead.
package inc

import (
	"fmt"
	"sync/atomic"

	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/unionfind"
)

// State is an incremental connectivity structure over a fixed vertex set.
// Connected, ComponentCount and Labels are safe to call concurrently with
// Apply; Apply itself may be called from one goroutine at a time (writers
// serialize, readers don't — the Engine's locking already provides this).
type State struct {
	n          int
	uf         *unionfind.Concurrent
	components atomic.Int64
}

// NewSingletons returns a State over n isolated vertices.
func NewSingletons(n int) *State {
	s := &State{n: n, uf: unionfind.NewConcurrent(n)}
	s.components.Store(int64(n))
	return s
}

// FromLabels seeds a State from a canonical CC labeling (label[v] is the
// minimum vertex id of v's component, as cc.Run and serialdfs.CC produce)
// and its component count. It panics on a non-canonical labeling, since a
// silently mis-seeded union-find would corrupt every later answer.
func FromLabels(label []uint32, numComponents int) *State {
	for v, l := range label {
		if int(l) >= len(label) || label[l] != l || l > uint32(v) {
			panic(fmt.Sprintf("inc: non-canonical label %d at vertex %d", l, v))
		}
	}
	s := &State{n: len(label), uf: unionfind.SeedConcurrent(label)}
	s.components.Store(int64(numComponents))
	return s
}

// NumVertices returns the size of the vertex set.
func (s *State) NumVertices() int { return s.n }

// Apply absorbs a batch of undirected edge insertions using up to threads
// workers and returns the number of component merges the batch caused.
// Self-loops are ignored; duplicate edges (within the batch or against
// earlier batches) are harmless and merge nothing.
func (s *State) Apply(batch []graph.Edge, threads int) int {
	p := parallel.Threads(threads)
	var merged int64
	parallel.ForBlocks(0, len(batch), p, func(lo, hi, _ int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			e := batch[i]
			if e.U == e.V {
				continue
			}
			if _, m := s.uf.Unite(e.U, e.V); m {
				local++
			}
		}
		if local != 0 {
			atomic.AddInt64(&merged, local)
		}
	})
	s.components.Add(-merged)
	return int(merged)
}

// Connected reports whether u and v are currently in one component. It is
// safe concurrently with Apply; the answer is a linearization-point snapshot
// and monotone (once true, always true).
func (s *State) Connected(u, v graph.V) bool { return s.uf.Same(u, v) }

// Find returns the current canonical representative (minimum member) of v's
// component.
func (s *State) Find(v graph.V) graph.V { return s.uf.Find(v) }

// ComponentCount returns the number of components. Concurrent with an Apply
// in flight it reports the count as of the last completed batch; between
// batches it is exact.
func (s *State) ComponentCount() int { return int(s.components.Load()) }

// Labels flattens the structure into a fresh canonical label slice (minimum
// member per component). Call between batches for an exact snapshot.
func (s *State) Labels() []uint32 { return s.uf.Labels() }

// CCResult materializes the incremental state as a complete cc.Result — the
// same shape the static pipeline returns, derived in O(|V|) from the
// union-find instead of by traversal. Stats are zero: no traversal ran. It
// flattens and counts every vertex, so per-batch callers should keep their
// own O(batch) census and call it only to re-base that (Find gives the new
// root of each merged endpoint).
func (s *State) CCResult(threads int) *cc.Result {
	p := parallel.Threads(threads)
	label := s.uf.Labels()
	res := &cc.Result{Label: label, Sizes: make(map[uint32]int)}
	counts := make([]int32, s.n)
	parallel.ForBlocks(0, s.n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			parallel.AddI32(&counts[label[v]], 1)
		}
	})
	for l, c := range counts {
		if c > 0 {
			res.Sizes[uint32(l)] = int(c)
			res.NumComponents++
			if int(c) > res.LargestSize {
				res.LargestSize = int(c)
				res.LargestLabel = uint32(l)
			}
		}
	}
	return res
}
