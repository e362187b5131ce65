package cc

import (
	"aquila/internal/bfs"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/unionfind"
)

// finishUF completes the sampled partition by uniting every edge whose
// source row is not skipped: edges internal to the provisional largest
// component never get scanned, and any edge leaving it is seen from its
// other endpoint's row (so connectivity is complete). rem selects Rem's
// splicing unite over the two-Find CAS unite. Returns the number of rows
// scanned.
func finishUF(r rows, uf *unionfind.Concurrent, skip func(graph.V) bool, rem bool, p int, done <-chan struct{}) int {
	unite := uf.Unite
	if rem {
		unite = uf.UniteRem
	}
	off, adj := r.off, r.adj
	return forEachVertexChunk(r.n, p, done, func(lo, hi int) int {
		scanned := 0
		for v := lo; v < hi; v++ {
			if skip != nil && skip(graph.V(v)) {
				continue
			}
			scanned++
			for _, u := range adj[off[v]:off[v+1]] {
				unite(uint32(v), uint32(u))
			}
		}
		return scanned
	})
}

// finishHybridBFS is the enhanced-BFS finish behind a sampling phase: the
// data-parallel BFS from the max-degree pivot covers the (true) giant
// component in one traversal, its reached set is folded into the union-find,
// and a CAS union-find sweep picks up the rows outside both the reached set
// and the provisional largest component. Every edge with both endpoints
// inside the reached set is already unioned (a full-component BFS has no
// half-covered edges), so skipping those rows loses nothing.
func finishHybridBFS(r rows, uf *unionfind.Concurrent, skip func(graph.V) bool, res *Result, p int, opt Options) {
	g, n := r.und, r.n
	done := parallel.Done(opt.Ctx)
	rs := bfs.NewReachScratch(n, p)
	master := g.MaxDegreeVertex()
	visited := rs.Reach(bfs.UndirectedAdj(g), master, nil,
		bfs.Options{Threads: p, Ctx: opt.Ctx}, opt.Mode)
	if parallel.Stopped(done) {
		return
	}
	res.Stats.LargestByBFS = visited.Count()
	uniteVisited(visited.Get, uf, uint32(master), n, p, done)
	if parallel.Stopped(done) {
		return
	}
	sweep := func(v graph.V) bool {
		return visited.Get(uint32(v)) || (skip != nil && skip(v))
	}
	res.Stats.FinishRows = finishUF(r, uf, sweep, false, p, done)
}
