// Package bgcc implements Aquila's bridgeless-connected-components (2-edge-
// connected components) computation: pendant trim (every trimmed edge is a
// bridge), BFS forest, bridge-variant single-parent-only pruning, and one
// constrained BFS per surviving tree edge — tree edge (p,v) is a bridge iff v
// cannot reach any vertex at level ≤ level[p] without that edge (reaching p
// itself through another path disproves it, which also makes the root level
// need no special casing). The BgCC labels are then the connected components
// of the graph minus its bridges, computed with the same adaptive
// large-BFS + label-propagation split as CC.
package bgcc

import (
	"context"

	"aquila/internal/bfs"
	"aquila/internal/bitmap"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/spo"
	"aquila/internal/trim"
)

// Options selects threads and the ablation/query-transformation toggles.
type Options struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// NoTrim disables the pendant trim.
	NoTrim bool
	// NoSPO disables single-parent-only pruning of bridge checks.
	NoSPO bool
	// NoAdaptive serializes the per-level checks (Fig. 10 ablation).
	NoAdaptive bool
	// Mode selects the parallel-BFS flavour.
	Mode bfs.Mode
	// BridgeOnly skips the component labeling (the §3 partial bridge query).
	BridgeOnly bool
	// Ctx, if non-nil, cancels the run cooperatively at level and chunk
	// boundaries. A cancelled Run returns a partial Result the caller must
	// discard after checking Ctx.Err().
	Ctx context.Context
}

// Stats quantifies the workload reduction (Fig. 6b numerators).
type Stats struct {
	// Candidates is the number of bridge checks a trim-less, SPO-less
	// implementation would run (one per tree edge, i.e. per non-root vertex,
	// plus one per trimmed vertex).
	Candidates int
	// SkippedTrim, SkippedSPO, SkippedMarked and Ran classify the checks.
	SkippedTrim, SkippedSPO, SkippedMarked, Ran int
	// Bridges is the number of bridges found (trim + constrained checks).
	Bridges int
}

// Result is the 2-edge-connected decomposition.
type Result struct {
	// IsBridge flags dense edge ids that are bridges.
	IsBridge []bool
	// Label maps each vertex to its BgCC (nil when BridgeOnly was set);
	// labels are the smallest vertex id per component.
	Label []uint32
	// NumComponents is the number of BgCCs (0 when BridgeOnly).
	NumComponents int
	// LargestSize is the size of the biggest BgCC (0 when BridgeOnly).
	LargestSize int
	Stats       Stats
}

// Run computes the bridges (and, unless BridgeOnly, the BgCC labeling) of g.
func Run(g *graph.Undirected, opt Options) *Result {
	n := g.NumVertices()
	p := parallel.Threads(opt.Threads)
	res := &Result{IsBridge: make([]bool, g.NumEdges())}
	if n == 0 {
		if !opt.BridgeOnly {
			res.Label = []uint32{}
		}
		return res
	}

	eids := g.EdgeIDs()
	marked := bitmap.NewAtomic(int(g.NumEdges()))
	var removed []bool
	if !opt.NoTrim {
		pend := trim.Pendants(g)
		removed = pend.Removed
		for _, e := range pend.BridgeEdges {
			res.IsBridge[e] = true
			marked.Set(uint32(e))
		}
		res.Stats.SkippedTrim = pend.TrimmedCount
		res.Stats.Bridges = len(pend.BridgeEdges)
	}

	tree := bfs.NewTree(n)
	tree.RunForest(g, coreMaxDegree(g, removed), removed, bfs.Options{Threads: p, Ctx: opt.Ctx})
	done := parallel.Done(opt.Ctx)
	if parallel.Stopped(done) {
		return res // partial: caller checks opt.Ctx.Err() and discards
	}

	var flags *spo.Flags
	if !opt.NoSPO {
		flags = spo.Compute(g, tree.Level, tree.Parent, removed, p)
	}

	for v := 0; v < n; v++ {
		if removed != nil && removed[v] {
			res.Stats.Candidates++
		} else if tree.Level[v] >= 1 {
			res.Stats.Candidates++
		}
	}

	// Index candidates by level, deepest first; marking bridge regions keeps
	// nested bridge checks from re-sweeping each other's subgraphs.
	byLevel := make([][]graph.V, tree.MaxLevel+1)
	for v := 0; v < n; v++ {
		if removed != nil && removed[v] {
			continue
		}
		if l := tree.Level[v]; l >= 1 {
			byLevel[l] = append(byLevel[l], graph.V(v))
		}
	}
	// Each byLevel list was appended by one ascending vertex scan, so it is
	// already sorted by id — no per-level sort needed.
	scratches := make([]*bfs.Scratch, p)
	for i := range scratches {
		scratches[i] = bfs.NewScratch(n)
	}
	blocked := func(e int64) bool { return marked.Get(uint32(e)) }

	threads := p
	if opt.NoAdaptive {
		threads = 1
	}
	var skippedSPO, skippedMarked, ran, found int64
	for lvl := tree.MaxLevel; lvl >= 1; lvl-- {
		if parallel.Stopped(done) {
			return res
		}
		verts := byLevel[lvl]
		parallel.ForChunksDynamic(0, len(verts), threads, 8, func(lo, hi, w int) {
			scratch := scratches[w]
			for i := lo; i < hi; i++ {
				if parallel.Stopped(done) {
					return
				}
				v := verts[i]
				if flags != nil && flags.SkipBridge[v] {
					parallel.AddI64(&skippedSPO, 1)
					continue
				}
				parent := tree.Parent[v]
				eid := g.EdgeIDOf(parent, v)
				if marked.Get(uint32(eid)) {
					parallel.AddI64(&skippedMarked, 1)
					continue
				}
				parallel.AddI64(&ran, 1)
				reached, region := scratch.Run(g, bfs.Constraint{
					Start:        v,
					BannedVertex: graph.NoVertex,
					BannedEdge:   eid,
					Bound:        tree.Level[parent],
					Level:        tree.Level,
					Blocked:      blocked,
					Removed:      removed,
				})
				if reached {
					continue
				}
				parallel.AddI64(&found, 1)
				res.IsBridge[eid] = true
				marked.Set(uint32(eid))
				// Seal the separated region so enclosing checks skip it; its
				// only boundary edge is the bridge itself.
				for _, u := range region {
					ulo, uhi := g.SlotRange(u)
					for slot := ulo; slot < uhi; slot++ {
						if scratch.WasVisited(g.SlotTarget(slot)) {
							marked.Set(uint32(eids[slot]))
						}
					}
				}
			}
		})
	}
	res.Stats.SkippedSPO = int(skippedSPO)
	res.Stats.SkippedMarked = int(skippedMarked)
	res.Stats.Ran = int(ran)
	res.Stats.Bridges += int(found)

	if parallel.Stopped(done) {
		return res
	}
	if !opt.BridgeOnly {
		res.labelComponents(g, p, done)
	}
	return res
}

// labelComponents computes CC over the graph minus bridges, adaptively: one
// frontier BFS (with the bridge filter) for the component of the max-degree
// vertex, then filtered min-label propagation for the rest.
func (r *Result) labelComponents(g *graph.Undirected, p int, done <-chan struct{}) {
	n := g.NumVertices()
	r.Label = make([]uint32, n)
	for i := range r.Label {
		r.Label[i] = graph.NoVertex
	}
	if n == 0 {
		return
	}
	eids := g.EdgeIDs()
	master := g.MaxDegreeVertex()
	visited := bitmap.NewAtomic(n)
	visited.Set(master)
	frontier := []graph.V{master}
	for len(frontier) > 0 {
		if parallel.Stopped(done) {
			return // Label is partial; the cancelled caller discards it
		}
		locals := make([][]graph.V, p)
		parallel.ForChunksDynamic(0, len(frontier), p, 64, func(lo, hi, w int) {
			buf := locals[w]
			for i := lo; i < hi; i++ {
				u := frontier[i]
				ulo, uhi := g.SlotRange(u)
				for slot := ulo; slot < uhi; slot++ {
					if r.IsBridge[eids[slot]] {
						continue
					}
					v := g.SlotTarget(slot)
					if visited.TrySet(v) {
						buf = append(buf, v)
					}
				}
			}
			locals[w] = buf
		})
		frontier = frontier[:0]
		for _, buf := range locals {
			frontier = append(frontier, buf...)
		}
	}
	minID := uint32(graph.NoVertex)
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			if visited.Get(graph.V(v)) {
				parallel.MinU32(&minID, uint32(v))
				break
			}
		}
	})
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			if visited.Get(graph.V(v)) {
				r.Label[v] = minID
			}
		}
	})

	// Filtered label propagation for everything else.
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		if r.Label[v] == graph.NoVertex {
			active[v] = true
			r.Label[v] = uint32(v)
		}
	}
	propagateMinFiltered(g, r.Label, active, r.IsBridge, p, done)
	if parallel.Stopped(done) {
		return // skip the census: labels are partial and will be discarded
	}

	counts := make([]int32, n)
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			parallel.AddI32(&counts[r.Label[v]], 1)
		}
	})
	for _, c := range counts {
		if c > 0 {
			r.NumComponents++
			if int(c) > r.LargestSize {
				r.LargestSize = int(c)
			}
		}
	}
}

// propagateMinFiltered is min-label propagation that never crosses a deleted
// (bridge) edge and only touches active vertices.
func propagateMinFiltered(g *graph.Undirected, label []uint32, active []bool, deleted []bool, p int, done <-chan struct{}) {
	frontier := make([]graph.V, 0, len(active))
	for v := range active {
		if active[v] {
			frontier = append(frontier, graph.V(v))
		}
	}
	eids := g.EdgeIDs()
	inNext := make([]uint32, g.NumVertices())
	epoch := uint32(0)
	for len(frontier) > 0 {
		if parallel.Stopped(done) {
			return
		}
		epoch++
		locals := make([][]graph.V, p)
		parallel.ForChunksDynamic(0, len(frontier), p, 64, func(lo, hi, w int) {
			buf := locals[w]
			for i := lo; i < hi; i++ {
				u := frontier[i]
				lu := parallel.LoadU32(&label[u])
				ulo, uhi := g.SlotRange(u)
				for slot := ulo; slot < uhi; slot++ {
					if deleted[eids[slot]] {
						continue
					}
					v := g.SlotTarget(slot)
					if !active[v] {
						continue
					}
					if parallel.MinU32(&label[v], lu) && claimEpoch(&inNext[v], epoch) {
						buf = append(buf, v)
					}
				}
			}
			locals[w] = buf
		})
		frontier = frontier[:0]
		for _, buf := range locals {
			frontier = append(frontier, buf...)
		}
	}
}

func claimEpoch(slot *uint32, epoch uint32) bool {
	for {
		old := parallel.LoadU32(slot)
		if old == epoch {
			return false
		}
		if parallel.CASU32(slot, old, epoch) {
			return true
		}
	}
}

func coreMaxDegree(g *graph.Undirected, removed []bool) graph.V {
	best := graph.V(0)
	bestDeg := -1
	for v := 0; v < g.NumVertices(); v++ {
		if removed != nil && removed[v] {
			continue
		}
		if d := g.Degree(graph.V(v)); d > bestDeg {
			bestDeg = d
			best = graph.V(v)
		}
	}
	return best
}
