package slota

import (
	"aquila/internal/bfs"
	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// edgeUF is a union-find over non-root vertices, where vertex v stands for
// its BFS-tree parent edge (parent[v], v). Representatives are kept at the
// minimum level (ties broken by id) so a set's representative names the
// block's topmost tree edge.
type edgeUF struct {
	parent []graph.V
	level  []int32
}

func newEdgeUF(n int, level []int32) *edgeUF {
	p := make([]graph.V, n)
	for i := range p {
		p[i] = graph.V(i)
	}
	return &edgeUF{parent: p, level: level}
}

func (u *edgeUF) find(x graph.V) graph.V {
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

func (u *edgeUF) union(a, b graph.V) graph.V {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	// Lower level wins; tie → lower id.
	if u.level[rb] < u.level[ra] || (u.level[rb] == u.level[ra] && rb < ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return ra
}

// BiCCLP computes biconnected components via the BFS forest plus
// fundamental-cycle unions: for every non-tree edge, the tree edges along its
// cycle are merged into one set; the final sets are the blocks.
func BiCCLP(g *graph.Undirected, threads int) *Result {
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

	uf := newEdgeUF(n, tree.Level)
	isTree := func(u, v graph.V) bool {
		return tree.Parent[v] == u || tree.Parent[u] == v
	}

	// Union the fundamental cycle of every non-tree edge (two-pointer climb
	// to the LCA; each visited vertex's parent edge is on the cycle).
	for x := 0; x < n; x++ {
		xv := graph.V(x)
		lo, hi := g.SlotRange(xv)
		for slot := lo; slot < hi; slot++ {
			y := g.SlotTarget(slot)
			if xv >= y || isTree(xv, y) {
				continue
			}
			a, b := xv, y
			var rep graph.V = graph.NoVertex
			for a != b {
				if tree.Level[a] < tree.Level[b] {
					a, b = b, a
				}
				// a is the deeper (or equal) pointer: edge (parent[a], a) is
				// on the cycle.
				next := tree.Parent[a]
				if rep == graph.NoVertex {
					rep = uf.find(a)
				} else {
					rep = uf.union(rep, a)
				}
				a = next
			}
		}
	}

	// Collect blocks: one per set of tree edges; assign non-tree edges to the
	// set of their deeper endpoint.
	eids := g.EdgeIDs()
	blockID := make(map[graph.V]int64)
	for v := 0; v < n; v++ {
		if tree.Level[v] < 1 {
			continue
		}
		r := uf.find(graph.V(v))
		id, ok := blockID[r]
		if !ok {
			id = int64(len(blockID))
			blockID[r] = id
		}
		eid := g.EdgeIDOf(tree.Parent[v], graph.V(v))
		res.BlockOf[eid] = id
	}
	for x := 0; x < n; x++ {
		xv := graph.V(x)
		lo, hi := g.SlotRange(xv)
		for slot := lo; slot < hi; slot++ {
			y := g.SlotTarget(slot)
			if xv >= y || isTree(xv, y) {
				continue
			}
			deeper := xv
			if tree.Level[y] > tree.Level[deeper] {
				deeper = y
			}
			res.BlockOf[eids[slot]] = blockID[uf.find(deeper)]
		}
	}
	res.NumBlocks = len(blockID)

	// Articulation points: the parent of each set representative cuts that
	// block off (non-roots always have an outside); roots are APs iff at
	// least two distinct child sets hang off them.
	rootSets := make(map[graph.V]map[graph.V]bool)
	for v := 0; v < n; v++ {
		if tree.Level[v] < 1 {
			continue
		}
		r := uf.find(graph.V(v))
		if graph.V(v) != r {
			continue // only representatives mark cut vertices
		}
		top := tree.Parent[r]
		if tree.Level[top] == 0 {
			if rootSets[top] == nil {
				rootSets[top] = make(map[graph.V]bool)
			}
			rootSets[top][r] = true
		} else {
			res.IsAP[top] = true
		}
	}
	for root, sets := range rootSets {
		if len(sets) >= 2 {
			res.IsAP[root] = true
		}
	}
	return res
}

// BridgesLP derives bridges from the BiCCLP decomposition: a tree edge whose
// block contains exactly one edge is a bridge (non-tree edges are never
// bridges).
func BridgesLP(g *graph.Undirected, threads int) []bool {
	res := BiCCLP(g, threads)
	count := make(map[int64]int)
	for _, b := range res.BlockOf {
		count[b]++
	}
	bridge := make([]bool, g.NumEdges())
	for e, b := range res.BlockOf {
		if count[b] == 1 {
			bridge[e] = true
		}
	}
	return bridge
}
