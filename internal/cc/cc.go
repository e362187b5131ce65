// Package cc implements Aquila's connected-components computation as a
// small ConnectIt-style algorithm matrix: a Policy picks one cell, Solve runs
// it, and ChoosePolicy picks the cell adaptively from cheap graph
// statistics. The paper's own pipeline (§6.2: trim the trivial patterns,
// enhanced data-parallel BFS for the single large component, task-parallel
// label-propagation sweep for the many small ones) survives unchanged as the
// {SampleNone, FinishEnhancedBFS} cell, which Run still executes. The other
// four cells are {no sampling, Afforest sampling} × {CAS union-find, Rem's
// union-find}: the only cells that were ever fastest on a benchmark class.
// WCC is the same computation over the undirected view of a directed graph
// (graph.Undirect, paper §6.1). SolveDirected computes it without that view
// for the union-find cells: every undirected edge is an arc in its source's
// out-row, so a union-find over the out-arcs alone is a complete WCC, and a
// directed graph's census needs only its out-CSR.
package cc

import (
	"context"
	"math/bits"

	"aquila/internal/bfs"
	"aquila/internal/bitmap"
	"aquila/internal/graph"
	"aquila/internal/lp"
	"aquila/internal/parallel"
	"aquila/internal/trim"
	"aquila/internal/unionfind"
)

// Options selects threads and the ablation toggles measured in Fig. 10.
// NoTrim, NoAdaptive and Mode only shape the pipeline cell; the union-find
// cells have no trims or mode switches to ablate.
type Options struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// NoTrim disables the Fig. 7a/7b trims.
	NoTrim bool
	// NoAdaptive disables the adaptive large/small split: every component is
	// computed by BFS (the paper's parallel-BFS baseline in Fig. 10).
	NoAdaptive bool
	// Mode selects the parallel-BFS flavour for the large component.
	Mode bfs.Mode
	// Ctx, if non-nil, cancels the run cooperatively at chunk boundaries.
	// A cancelled Solve returns a partial, inconsistent Result that the
	// caller must discard after checking Ctx.Err(). nil costs one branch per
	// check.
	Ctx context.Context
}

// Stats reports where the work went.
type Stats struct {
	// TrimmedOrphans and TrimmedPairs are vertices resolved by trimming
	// (pipeline cell only).
	TrimmedOrphans, TrimmedPairs int
	// LargestByBFS is the size of the component computed data-parallel by
	// the enhanced-BFS phase (pipeline cell only).
	LargestByBFS int
	// SmallByLP is the number of vertices swept by label propagation
	// (pipeline cell only).
	SmallByLP int
	// SampleMerges is the number of component merges the sampling phase
	// performed (0 for SampleNone).
	SampleMerges int
	// FinishRows is the number of adjacency rows the union-find finish
	// scanned; rows skipped as internal to the provisional largest component
	// are the work sampling saved. The pipeline cell reports 0.
	FinishRows int
}

// Result is a component labeling: every vertex in a component shares the
// label, and the label is the smallest vertex id in the component.
type Result struct {
	Label []uint32
	// Policy is the matrix cell that produced this result.
	Policy Policy
	// NumComponents is the number of distinct components.
	NumComponents int
	// LargestLabel and LargestSize identify the biggest component.
	LargestLabel uint32
	LargestSize  int
	// Sizes maps each component label to its vertex count.
	Sizes map[uint32]int
	Stats Stats
}

// Run computes the connected components of g with the classic pipeline cell
// (trim + enhanced BFS + LP sweep). It is Solve with PolicyPipeline.
func Run(g *graph.Undirected, opt Options) *Result {
	return Solve(g, PolicyPipeline, opt)
}

// Solve computes the connected components of g with the given matrix cell.
// Every cell returns the same canonical labeling (label = minimum vertex id
// of the component), so results are interchangeable — including as seeds for
// the incremental layer. An invalid policy falls back to the pipeline cell
// rather than failing: Solve is on the serving path, where a stale policy
// string must degrade, not crash.
func Solve(g *graph.Undirected, pol Policy, opt Options) *Result {
	if pol.Valid() != nil {
		pol = PolicyPipeline
	}
	if pol == PolicyPipeline {
		return runPipeline(g, opt)
	}
	off, adj := g.CSR()
	return runMatrix(rows{n: g.NumVertices(), off: off, adj: adj}, pol, opt)
}

// SolveDirected computes the weakly connected components of d: the labels
// and census of Solve(graph.Undirect(d), pol, opt). The union-find cells
// (Policy.UnionFind) run on d's out-CSR alone, the same loops undirected CC
// runs, so neither the in-CSR nor the undirected view is built. Each edge is
// then stored at one endpoint only, so the finish skips no row:
// Stats.FinishRows is |V|. The pipeline walks undirected adjacency and runs
// on d's undirected view, which its first run builds
// (graph.Directed.Undirected). An invalid policy falls back to the pipeline
// cell, as in Solve.
func SolveDirected(d *graph.Directed, pol Policy, opt Options) *Result {
	if pol.Valid() != nil || !pol.UnionFind() {
		return Solve(d.Undirected(opt.Threads), pol, opt)
	}
	off, adj := d.OutCSR()
	return runMatrix(rows{n: d.NumVertices(), off: off, adj: adj, oneEnd: true}, pol, opt)
}

// rows is the adjacency a union-find cell reads: row v is
// adj[off[v]:off[v+1]]. An undirected graph stores each edge in both
// endpoints' rows. With oneEnd set each edge sits in one endpoint's row only
// (a directed graph's out-arcs), so no row may be skipped as internal to the
// provisional largest component: an arc u→v with u inside it is stored in
// u's row alone.
type rows struct {
	n      int
	off    []int64
	adj    []graph.V
	oneEnd bool
}

// runPipeline is the original adaptive pipeline: trim, master BFS, LP sweep.
func runPipeline(g *graph.Undirected, opt Options) *Result {
	n := g.NumVertices()
	res := &Result{Label: make([]uint32, n), Policy: PolicyPipeline}
	for i := range res.Label {
		res.Label[i] = graph.NoVertex
	}
	if n == 0 {
		res.Sizes = map[uint32]int{}
		return res
	}
	p := parallel.Threads(opt.Threads)
	done := parallel.Done(opt.Ctx)

	if !opt.NoTrim {
		res.Stats.TrimmedOrphans = trim.Orphans(g, res.Label, p)
		res.Stats.TrimmedPairs = trim.Pairs(g, res.Label, p)
	}

	// One reusable traversal scratch serves the master BFS and, in the
	// non-adaptive fallback, every per-component BFS after it: each run's
	// visited bitmap is consumed before the next run resets it.
	rs := bfs.NewReachScratch(n, p)

	// Data-parallel phase: enhanced BFS from the max-degree master pivot,
	// which heuristically sits in the single large component (§5.3).
	master := g.MaxDegreeVertex()
	if res.Label[master] == graph.NoVertex {
		visited := rs.Reach(bfs.UndirectedAdj(g), master,
			func(v graph.V) bool { return res.Label[v] == graph.NoVertex },
			bfs.Options{Threads: p, Ctx: opt.Ctx}, opt.Mode)
		if parallel.Stopped(done) {
			return res // partial: caller checks opt.Ctx.Err() and discards
		}
		_, res.Stats.LargestByBFS = labelVisited(visited, res.Label, p)
	}

	if opt.NoAdaptive {
		runBFSOnly(g, res, rs, p, opt)
	} else {
		res.Stats.SmallByLP = lpSweep(g, res.Label, p, done)
	}
	if parallel.Stopped(done) {
		// Unlabeled vertices would crash the census; the cancelled caller
		// discards the result anyway.
		return res
	}

	res.summarize(n, p)
	return res
}

// lpSweep labels every still-unassigned vertex by min-label propagation over
// the unassigned subgraph. It returns the number of vertices swept.
func lpSweep(g *graph.Undirected, label []uint32, p int, done <-chan struct{}) int {
	n := g.NumVertices()
	active := make([]bool, n)
	swept := 0
	for v := 0; v < n; v++ {
		if label[v] == graph.NoVertex {
			active[v] = true
			label[v] = uint32(v)
			swept++
		}
	}
	if swept == 0 {
		return 0
	}
	lp.MinLabelCCDone(g, label, func(v graph.V) bool { return active[v] }, p, done)
	return swept
}

// runBFSOnly is the non-adaptive fallback: one (parallel) BFS per remaining
// component, all through the shared scratch. Iterating vertex ids ascending
// makes each new root the minimum id of its component, so labels stay
// canonical.
func runBFSOnly(g *graph.Undirected, res *Result, rs *bfs.ReachScratch, p int, opt Options) {
	n := g.NumVertices()
	done := parallel.Done(opt.Ctx)
	for v := 0; v < n; v++ {
		if res.Label[v] != graph.NoVertex {
			continue
		}
		if parallel.Stopped(done) {
			return
		}
		visited := rs.Reach(bfs.UndirectedAdj(g), graph.V(v),
			func(u graph.V) bool { return res.Label[u] == graph.NoVertex },
			bfs.Options{Threads: p, Ctx: opt.Ctx}, opt.Mode)
		labelVisited(visited, res.Label, p)
	}
}

// summarizeSerialMax is the vertex count under which the census runs serial:
// below it the parallel fork/join and the n-sized atomic counts array cost
// more than a single map pass.
const summarizeSerialMax = 4096

// summarize fills the component census fields from the label array.
func (r *Result) summarize(n, p int) {
	if n <= summarizeSerialMax || p == 1 {
		// Serial census straight into the map: no n-sized scratch array.
		r.Sizes = make(map[uint32]int)
		for _, l := range r.Label {
			r.Sizes[l]++
		}
		for l, c := range r.Sizes {
			r.NumComponents++
			if c > r.LargestSize || (c == r.LargestSize && l < r.LargestLabel) {
				r.LargestSize = c
				r.LargestLabel = l
			}
		}
		return
	}
	counts := make([]int32, n)
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			l := r.Label[v]
			parallel.AddI32(&counts[l], 1)
		}
	})
	r.Sizes = make(map[uint32]int)
	for l, c := range counts {
		if c > 0 {
			r.Sizes[uint32(l)] = int(c)
			r.NumComponents++
			if int(c) > r.LargestSize {
				r.LargestSize = int(c)
				r.LargestLabel = uint32(l)
			}
		}
	}
}

// labelVisited assigns every visited vertex the component's minimum id (the
// first set bit) in one word-scanning parallel pass — folding the old
// per-block min scan, per-vertex labeling scan and popcount pass into a
// single sweep over the bitmap words. It returns the minimum id and the
// visited count. The traversal that produced the bitmap must have quiesced:
// labelVisited reads the raw words without atomics.
func labelVisited(visited *bitmap.Atomic, label []uint32, p int) (uint32, int) {
	words := visited.RawWords()
	minID := uint32(graph.NoVertex)
	for wi, w := range words {
		if w != 0 {
			minID = uint32(wi*64 + bits.TrailingZeros64(w))
			break
		}
	}
	if minID == uint32(graph.NoVertex) {
		return minID, 0
	}
	var count int64
	parallel.ForBlocks(0, len(words), p, func(lo, hi, _ int) {
		c := 0
		for wi := lo; wi < hi; wi++ {
			w := words[wi]
			base := wi * 64
			for w != 0 {
				b := bits.TrailingZeros64(w)
				label[base+b] = minID
				w &= w - 1
				c++
			}
		}
		if c > 0 {
			parallel.AddI64(&count, int64(c))
		}
	})
	return minID, int(count)
}

// runMatrix executes a union-find cell: sampling phase into a concurrent
// union-find, union-find finish over the remaining rows, flatten, census.
func runMatrix(r rows, pol Policy, opt Options) *Result {
	n := r.n
	res := &Result{Label: make([]uint32, n), Policy: pol}
	p := parallel.Threads(opt.Threads)
	done := parallel.Done(opt.Ctx)
	uf := unionfind.NewConcurrent(n)

	largest, haveLargest := runSampling(r, pol, uf, res, p, done)
	if parallel.Stopped(done) {
		return res // partial: caller checks opt.Ctx.Err() and discards
	}

	// skip reports rows whose edges the finish phase may ignore: everything
	// inside the provisional largest component is already unioned, and any
	// edge leaving it is seen from its other endpoint's row — which holds
	// only where every edge is stored at both endpoints.
	var skip func(graph.V) bool
	if haveLargest && !r.oneEnd {
		skip = func(v graph.V) bool { return uf.Find(uint32(v)) == uf.Find(largest) }
	}
	res.Stats.FinishRows = finishUF(r, uf, skip, pol.Finish == FinishUFRem, p, done)
	if parallel.Stopped(done) {
		return res
	}

	flattenLabels(uf, res.Label, p)
	res.summarize(n, p)
	return res
}

// flattenLabels writes the union-find's canonical minimum-id labels into
// label, in parallel. Find's benign CAS compression makes concurrent finds
// race-clean.
func flattenLabels(uf *unionfind.Concurrent, label []uint32, p int) {
	parallel.ForBlocks(0, len(label), p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			label[v] = uf.Find(uint32(v))
		}
	})
}
