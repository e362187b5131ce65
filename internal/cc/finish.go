package cc

import (
	"aquila/internal/graph"
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
