// Package slota reproduces the Slota BiCC comparator rows of Table 2 (Slota
// & Madduri, HiPC'14), the state-of-the-art parallel biconnectivity methods
// before Aquila:
//
//   - BiCCBFS ("Slota_BFS"): the BFS-tree method of the paper's Algorithm 1
//     run WITHOUT trimming and WITHOUT single-parent-only pruning — one
//     constrained BFS per non-root vertex, up to |V| of them. The gap between
//     this and Aquila's BiCC is exactly the workload the §4 reductions
//     remove.
//   - BiCCLP ("Slota_LP"): a label/union-based variant — build a BFS forest,
//     then for every non-tree edge union the tree edges along its fundamental
//     cycle; the resulting edge sets are the biconnected components, from
//     which articulation points and bridges fall out. (See DESIGN.md §5:
//     this is a simplified stand-in for Slota's color-propagation algorithm
//     with the same BFS-tree + label-merging character.)
package slota

import (
	"aquila/internal/bfs"
	"aquila/internal/bitmap"
	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// Result is a block decomposition in the same shape as the serial oracle.
type Result struct {
	IsAP      []bool
	BlockOf   []int64
	NumBlocks int
	// ChecksRun counts constrained BFSes executed (BiCCBFS only) — the
	// workload number Fig. 6 contrasts with Aquila's.
	ChecksRun int
}

// BiCCBFS computes biconnected components with one constrained BFS per
// non-root vertex, processed level by level (deepest first) with region
// marking, but with no trim and no SPO pruning.
func BiCCBFS(g *graph.Undirected, threads int) *Result {
	n := g.NumVertices()
	p := parallel.Threads(threads)
	res := &Result{
		IsAP:    make([]bool, n),
		BlockOf: make([]int64, g.NumEdges()),
	}
	for i := range res.BlockOf {
		res.BlockOf[i] = -1
	}
	if n == 0 {
		return res
	}
	tree := bfs.NewTree(n)
	tree.RunForest(g, g.MaxDegreeVertex(), nil, bfs.Options{Threads: p})

	eids := g.EdgeIDs()
	marked := bitmap.NewAtomic(int(g.NumEdges()))
	blocked := func(e int64) bool { return marked.Get(uint32(e)) }
	var nextBlock int64
	scratches := make([]*bfs.Scratch, p)
	for i := range scratches {
		scratches[i] = bfs.NewScratch(n)
	}

	// Group children by parent per level (same disjointness argument as the
	// Aquila implementation; parents at one level are independent tasks).
	byLevel := make([][]graph.V, tree.MaxLevel+1)
	for v := 0; v < n; v++ {
		if l := tree.Level[v]; l >= 1 {
			byLevel[l] = append(byLevel[l], graph.V(v))
		}
	}
	var checks int64
	for lvl := tree.MaxLevel; lvl >= 2; lvl-- {
		verts := byLevel[lvl]
		groups := groupByParent(verts, tree.Parent)
		parallel.ForChunksDynamic(0, len(groups), p, 1, func(lo, hi, w int) {
			scratch := scratches[w]
			for gi := lo; gi < hi; gi++ {
				grp := groups[gi]
				parent := tree.Parent[grp[0]]
				for _, v := range grp {
					eid := g.EdgeIDOf(parent, v)
					if marked.Get(uint32(eid)) {
						continue
					}
					parallel.AddI64(&checks, 1)
					reached, region := scratch.Run(g, bfs.Constraint{
						Start: v, BannedVertex: parent, BannedEdge: -1,
						Bound: tree.Level[parent], Level: tree.Level,
						Blocked: blocked,
					})
					if reached {
						continue
					}
					res.IsAP[parent] = true
					claim(g, eids, parent, region, scratch, marked, &nextBlock, res.BlockOf)
				}
			}
		})
	}
	// Roots: group children into connected groups.
	var roots []graph.V
	for v := 0; v < n; v++ {
		if tree.Level[v] == 0 && g.Degree(graph.V(v)) > 0 {
			roots = append(roots, graph.V(v))
		}
	}
	parallel.ForChunksDynamic(0, len(roots), p, 1, func(lo, hi, w int) {
		scratch := scratches[w]
		for i := lo; i < hi; i++ {
			root := roots[i]
			groups := 0
			rl, rh := g.SlotRange(root)
			for slot := rl; slot < rh; slot++ {
				c := g.SlotTarget(slot)
				if tree.Parent[c] != root || tree.Level[c] != 1 {
					continue
				}
				if marked.Get(uint32(eids[slot])) {
					continue
				}
				parallel.AddI64(&checks, 1)
				_, region := scratch.Run(g, bfs.Constraint{
					Start: c, BannedVertex: root, BannedEdge: -1,
					Bound: -2, Level: tree.Level,
					Blocked: blocked,
				})
				groups++
				claim(g, eids, root, region, scratch, marked, &nextBlock, res.BlockOf)
			}
			if groups >= 2 {
				res.IsAP[root] = true
			}
		}
	})
	res.NumBlocks = int(nextBlock)
	res.ChecksRun = int(checks)
	return res
}

func groupByParent(verts []graph.V, parent []graph.V) [][]graph.V {
	byParent := make(map[graph.V][]graph.V)
	for _, v := range verts {
		byParent[parent[v]] = append(byParent[parent[v]], v)
	}
	out := make([][]graph.V, 0, len(byParent))
	for _, grp := range byParent {
		out = append(out, grp)
	}
	return out
}

func claim(g *graph.Undirected, eids []int64, cut graph.V, region []graph.V, scratch *bfs.Scratch,
	marked *bitmap.Atomic, nextBlock *int64, blockOf []int64) {
	id := parallel.AddI64(nextBlock, 1) - 1
	for _, u := range region {
		lo, hi := g.SlotRange(u)
		for slot := lo; slot < hi; slot++ {
			w := g.SlotTarget(slot)
			eid := eids[slot]
			if marked.Get(uint32(eid)) {
				continue
			}
			if w == cut || scratch.WasVisited(w) {
				marked.Set(uint32(eid))
				blockOf[eid] = id
			}
		}
	}
}
