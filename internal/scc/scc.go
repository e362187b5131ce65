// Package scc implements Aquila's strongly-connected-components computation
// as a small policy matrix over tail strategies (mirroring the CC matrix):
// the paper pipeline (§6.2 — iterated size-1/size-2 trims, one forward–
// backward (FW-BW) sweep with the enhanced parallel BFS for the giant SCC,
// and the coloring method for the long tail of small SCCs) is the `coloring`
// cell, kept byte-identical, and Options.NoAdaptive turns its tail into the
// repeated-FW-BW baseline; the `multireach` cell replaces the coloring tail
// with batched multi-source reachability over hash-bag frontiers (Wang et
// al., PPoPP '23). ChoosePolicy picks a cell from cheap graph statistics plus
// a post-trim liveness probe.
package scc

import (
	"context"

	"aquila/internal/bfs"
	"aquila/internal/graph"
	"aquila/internal/lp"
	"aquila/internal/parallel"
	"aquila/internal/trim"
)

// Options selects threads and the Fig. 10 ablation toggles.
type Options struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// NoTrim disables the size-1/size-2 trims (Fig. 7c) in every cell.
	NoTrim bool
	// NoAdaptive replaces the coloring sweep for small SCCs with repeated
	// FW-BW from pivots — the paper's BFS-only baseline. It only has meaning
	// inside the coloring cell; the multireach cell ignores it.
	NoAdaptive bool
	// Mode selects the parallel-BFS flavour for the FW-BW reachability sweeps.
	Mode bfs.Mode
	// Ctx, if non-nil, cancels the run cooperatively at chunk boundaries
	// (FW-BW sweeps, coloring rounds, multireach hash-bag rounds). A
	// cancelled Run returns a partial Result the caller must discard after
	// checking Ctx.Err().
	Ctx context.Context
}

// Stats reports where the work went.
type Stats struct {
	// TrimmedSize1 and TrimmedSize2 are vertices resolved by trimming.
	TrimmedSize1, TrimmedSize2 int
	// GiantSize is the size of the SCC found by the first FW-BW sweep.
	GiantSize int
	// ColoringRounds counts outer iterations of the coloring sweep.
	ColoringRounds int
	// MultiReachRounds counts pivot-batch rounds of the multireach tail, and
	// MultiReachPivots the total pivots those rounds propagated from.
	MultiReachRounds, MultiReachPivots int
}

// Result is an SCC labeling: vertices share a label iff they are strongly
// connected; the label is the smallest vertex id in the SCC.
type Result struct {
	Label         []uint32
	NumComponents int
	LargestLabel  uint32
	LargestSize   int
	// Sizes maps each SCC label to its vertex count.
	Sizes map[uint32]int
	Stats Stats
	// Policy is the matrix cell that produced this result.
	Policy Policy
}

// Run computes the strongly connected components of g under opt with the
// classic paper pipeline — the coloring cell, unchanged.
func Run(g *graph.Directed, opt Options) *Result {
	return Solve(g, PolicyColoring, opt)
}

// Solve computes the strongly connected components of g with the given
// matrix cell. Every cell produces the same min-id canonical labeling; an
// invalid policy degrades to the coloring pipeline (the serving path must
// answer, not crash).
func Solve(g *graph.Directed, pol Policy, opt Options) *Result {
	if pol.Valid() != nil {
		pol = PolicyColoring
	}
	n := g.NumVertices()
	res := &Result{Label: make([]uint32, n), Policy: pol}
	for i := range res.Label {
		res.Label[i] = graph.NoVertex
	}
	if n == 0 {
		res.Sizes = map[uint32]int{}
		return res
	}
	p := parallel.Threads(opt.Threads)
	done := parallel.Done(opt.Ctx)

	if pol.Tail == TailMultiReach {
		runMultiReach(g, res, p, done, opt)
	} else {
		runPipeline(g, res, p, done, opt)
	}
	if parallel.Stopped(done) {
		// Unlabeled vertices would crash the census; the cancelled caller
		// discards the result anyway.
		return res
	}
	res.summarize(n, p)
	return res
}

// runPipeline is the paper pipeline (§6.2): trims, FW-BW for the giant SCC,
// then either the coloring sweep or (Options.NoAdaptive) repeated FW-BW for
// the remainder. This is the pre-matrix Run body, unchanged.
func runPipeline(g *graph.Directed, res *Result, p int, done <-chan struct{}, opt Options) {
	n := g.NumVertices()
	unassigned := func(v graph.V) bool { return res.Label[v] == graph.NoVertex }

	if !opt.NoTrim {
		res.Stats.TrimmedSize1 = trim.SCCSize1(g, res.Label, p)
		res.Stats.TrimmedSize2 = trim.SCCSize2(g, res.Label, p)
	}

	// Two reusable traversal scratches (the forward and backward halves of
	// FW-BW are alive at the same time) serve the giant sweep and, in the
	// non-adaptive baseline, every pivot sweep after it.
	fwS := bfs.NewReachScratch(n, p)
	bwS := bfs.NewReachScratch(n, p)

	// FW-BW for the giant SCC: forward and backward reachability from the
	// max-degree pivot; the intersection is its SCC.
	master := maxLiveDegree(g, res.Label, p)
	if master != graph.NoVertex {
		res.Stats.GiantSize = fwbwAssign(g, master, res.Label, fwS, bwS, p, opt)
	}

	if opt.NoAdaptive {
		// BFS-only baseline: repeated FW-BW from the highest-degree live pivot.
		for {
			if parallel.Stopped(done) {
				return // partial: caller checks opt.Ctx.Err() and discards
			}
			pivot := maxLiveDegree(g, res.Label, p)
			if pivot == graph.NoVertex {
				break
			}
			fwbwAssign(g, pivot, res.Label, fwS, bwS, p, opt)
		}
	} else {
		// Coloring sweep for the remaining small SCCs. All per-round work is
		// proportional to the shrinking live set, not |V|.
		color := make([]uint32, n)
		live := make([]graph.V, 0, n)
		for v := 0; v < n; v++ {
			if res.Label[v] == graph.NoVertex {
				live = append(live, graph.V(v))
			}
		}
		scratch := make([]graph.V, 0, 1024)
		for {
			if parallel.Stopped(done) {
				return // partial: caller checks opt.Ctx.Err() and discards
			}
			if !opt.NoTrim {
				// Peeling the giant SCC exposes new trimmable chains; the
				// iterated size-1/size-2 trims collapse them instead of
				// costing one coloring round per DAG layer.
				var t1, t2 int
				t1, t2, live = trim.SCCLive(g, res.Label, live, p)
				res.Stats.TrimmedSize1 += t1
				res.Stats.TrimmedSize2 += t2
			}
			if len(live) == 0 {
				break
			}
			res.Stats.ColoringRounds++
			for _, v := range live {
				color[v] = uint32(v)
			}
			scratch = append(scratch[:0], live...)
			lp.MaxColorForwardListDone(g, color, unassigned, scratch, p, done)
			if parallel.Stopped(done) {
				return
			}
			assignColorSCCs(g, color, res.Label, live, p, done)
			next := live[:0]
			for _, v := range live {
				if res.Label[v] == graph.NoVertex {
					next = append(next, v)
				}
			}
			live = next
		}
	}
}

// fwbwAssign labels the SCC of pivot (forward ∩ backward reachability among
// unassigned vertices) and returns its size. The two scratches are reused
// across calls; both bitmaps are consumed before the caller's next sweep.
func fwbwAssign(g *graph.Directed, pivot graph.V, label []uint32, fwS, bwS *bfs.ReachScratch, p int, opt Options) int {
	unassigned := func(v graph.V) bool { return label[v] == graph.NoVertex }
	fw := fwS.Reach(bfs.ForwardAdj(g), pivot, unassigned, bfs.Options{Threads: p, Ctx: opt.Ctx}, opt.Mode)
	bw := bwS.Reach(bfs.BackwardAdj(g), pivot, unassigned, bfs.Options{Threads: p, Ctx: opt.Ctx}, opt.Mode)
	if parallel.Stopped(parallel.Done(opt.Ctx)) {
		// Either traversal may be partial; skip the intersection entirely so
		// no vertex is mislabeled from a half-finished sweep.
		return 0
	}
	n := g.NumVertices()
	inSCC := func(v graph.V) bool { return fw.Get(v) && bw.Get(v) }
	minID := uint32(graph.NoVertex)
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			if inSCC(graph.V(v)) {
				parallel.MinU32(&minID, uint32(v))
				break
			}
		}
	})
	var size int64
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		var local int64
		for v := lo; v < hi; v++ {
			if inSCC(graph.V(v)) {
				label[v] = minID
				local++
			}
		}
		parallel.AddI64(&size, local)
	})
	return int(size)
}

// assignColorSCCs extracts one SCC per color root: the vertices of color c
// that reach the root backward within color class c. Distinct color classes
// are vertex-disjoint, so roots are processed task-parallel with per-worker
// scratch and no atomics on the label array.
func assignColorSCCs(g *graph.Directed, color, label []uint32, live []graph.V, p int, done <-chan struct{}) {
	// Gather roots: live vertices whose color equals their own id.
	var roots []graph.V
	for _, v := range live {
		if label[v] == graph.NoVertex && color[v] == uint32(v) {
			roots = append(roots, v)
		}
	}
	inOff, inAdj := g.InCSR()
	parallel.ForChunksDynamic(0, len(roots), p, 1, func(lo, hi, _ int) {
		queue := make([]graph.V, 0, 64)
		for i := lo; i < hi; i++ {
			if parallel.Stopped(done) {
				return
			}
			r := roots[i]
			c := uint32(r)
			// Backward BFS within the color class; label doubles as the
			// visited marker (the class is private to this root).
			minID := uint32(r)
			queue = append(queue[:0], r)
			label[r] = c
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				for _, w := range inAdj[inOff[u]:inOff[u+1]] {
					if color[w] == c && label[w] == graph.NoVertex {
						label[w] = c
						if uint32(w) < minID {
							minID = uint32(w)
						}
						queue = append(queue, w)
					}
				}
			}
			if minID != c {
				// Canonicalize to the smallest member id.
				for _, u := range queue {
					label[u] = minID
				}
			}
		}
	})
}

// maxLiveDegreeSerial is the vertex count under which the pivot scan runs
// serially — fork/join overhead dwarfs the scan on small graphs.
const maxLiveDegreeSerial = 1 << 12

// maxLiveDegree returns the unassigned vertex with the largest in+out degree
// (ties to the smallest id), or graph.NoVertex if none remain. Large graphs
// scan chunk-parallel with per-worker bests and an order-insensitive
// reduction that preserves the serial tie-break exactly.
func maxLiveDegree(g *graph.Directed, label []uint32, p int) graph.V {
	n := g.NumVertices()
	if p <= 1 || n < maxLiveDegreeSerial {
		return maxLiveDegreeRange(g, label, 0, n)
	}
	best := make([]graph.V, p)
	bestDeg := make([]int, p)
	for w := range best {
		best[w], bestDeg[w] = graph.NoVertex, -1
	}
	parallel.ForBlocks(0, n, p, func(lo, hi, w int) {
		v := maxLiveDegreeRange(g, label, lo, hi)
		if v != graph.NoVertex {
			best[w] = v
			bestDeg[w] = g.OutDegree(v) + g.InDegree(v)
		}
	})
	res, deg := graph.NoVertex, -1
	for w := 0; w < p; w++ {
		// Strictly greater degree wins; on ties the smaller vertex id does
		// (graph.NoVertex is the maximum uint32, so it never wins a tie).
		if bestDeg[w] > deg || (bestDeg[w] == deg && best[w] < res) {
			deg, res = bestDeg[w], best[w]
		}
	}
	return res
}

// maxLiveDegreeRange is the serial scan over [lo, hi): first vertex with the
// maximum live degree, i.e. the smallest id among the maximal ones.
func maxLiveDegreeRange(g *graph.Directed, label []uint32, lo, hi int) graph.V {
	inOff, _ := g.InCSR()
	best := graph.NoVertex
	bestDeg := -1
	for v := lo; v < hi; v++ {
		if label[v] != graph.NoVertex {
			continue
		}
		d := g.OutDegree(graph.V(v)) + int(inOff[v+1]-inOff[v])
		if d > bestDeg {
			bestDeg = d
			best = graph.V(v)
		}
	}
	return best
}

// summarizeSerialMax is the vertex count under which the census runs serial:
// below it the fork/join and the n-sized atomic counts array cost more than
// counting straight into the result map.
const summarizeSerialMax = 4096

// summarize fills the SCC census fields from the label array.
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
			parallel.AddI32(&counts[r.Label[v]], 1)
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
