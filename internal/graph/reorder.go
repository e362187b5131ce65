package graph

import (
	"slices"

	"aquila/internal/parallel"
)

// Permutation is a vertex relabeling: Perm maps original ids to new ids and
// Inv maps new ids back to original ids (Inv[Perm[v]] == v). Connectivity
// kernels run on the relabeled graph for locality; results are mapped back
// through Inv so callers never observe the new ids.
type Permutation struct {
	Perm []V // original id -> new id
	Inv  []V // new id -> original id
}

// NumVertices returns the size of the relabeled id space.
func (p *Permutation) NumVertices() int { return len(p.Perm) }

// IdentityPermutation returns the permutation that leaves ids unchanged.
// Useful as a neutral element in ablations.
func IdentityPermutation(n int) *Permutation {
	perm := make([]V, n)
	for v := range perm {
		perm[v] = V(v)
	}
	inv := make([]V, n)
	copy(inv, perm)
	return &Permutation{Perm: perm, Inv: inv}
}

// DegreeOrder returns the degree-descending ("hub-first") permutation: vertex
// ranks are assigned by decreasing degree, ties broken by original id. High-
// degree hubs cluster at the front of the CSR, so the frontier-heavy early
// levels of BFS and the hub-biased hooking of label propagation touch a
// compact prefix of memory.
func DegreeOrder(g *Undirected, threads int) *Permutation {
	return degreeOrder(g.n, func(u V) int64 { return g.off[u+1] - g.off[u] }, threads)
}

// DegreeOrderDirected is DegreeOrder for directed graphs, ranking by
// out-degree + in-degree (total touch count across both CSRs).
func DegreeOrderDirected(g *Directed, threads int) *Permutation {
	return degreeOrder(g.n, totalDegree(g), threads)
}

// totalDegree returns u's out-degree + in-degree as a function of u.
func totalDegree(g *Directed) func(V) int64 {
	inOff, _ := g.InCSR()
	return func(u V) int64 { return (g.outOff[u+1] - g.outOff[u]) + (inOff[u+1] - inOff[u]) }
}

func degreeOrder(n int, degree func(V) int64, threads int) *Permutation {
	order := make([]V, n)
	for v := range order {
		order[v] = V(v)
	}
	slices.SortFunc(order, func(a, b V) int {
		da, db := degree(a), degree(b)
		switch {
		case da > db:
			return -1
		case da < db:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	// order is new->orig; invert to Perm.
	perm := make([]V, n)
	parallel.For(0, n, parallel.Threads(threads), func(i int) {
		perm[order[i]] = V(i)
	})
	return &Permutation{Perm: perm, Inv: order}
}

// BFSOrder returns a BFS ("hub-clustered") visiting order: components are
// seeded from unvisited vertices in degree-descending order, and each
// component is laid out breadth-first from its hub. Neighbors that are close
// in the traversal — exactly the vertices connectivity kernels touch
// together — land on nearby CSR rows, the classic locality layout used by
// GBBS-style systems.
//
// The traversal itself is serial (layout quality, not layout speed, is the
// point of a one-time preprocessing pass); only the rank inversion runs on
// the pool.
func BFSOrder(g *Undirected, threads int) *Permutation {
	n := g.n
	seeds := degreeOrder(n, func(u V) int64 { return g.off[u+1] - g.off[u] }, threads).Inv
	inv := make([]V, 0, n)
	visited := make([]bool, n)
	queue := make([]V, 0, n)
	for _, root := range seeds {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inv = append(inv, u)
			for _, v := range g.adj[g.off[u]:g.off[u+1]] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	perm := make([]V, n)
	parallel.For(0, n, parallel.Threads(threads), func(i int) {
		perm[inv[i]] = V(i)
	})
	return &Permutation{Perm: perm, Inv: inv}
}

// BFSOrderDirected is BFSOrder over a directed graph's underlying undirected
// structure: the traversal follows both out- and in-arcs so a weakly
// connected component stays contiguous in the layout.
func BFSOrderDirected(g *Directed, threads int) *Permutation {
	n := g.n
	inOff, inAdj := g.InCSR()
	seeds := degreeOrder(n, totalDegree(g), threads).Inv
	inv := make([]V, 0, n)
	visited := make([]bool, n)
	queue := make([]V, 0, n)
	for _, root := range seeds {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inv = append(inv, u)
			for _, v := range g.outAdj[g.outOff[u]:g.outOff[u+1]] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
			for _, v := range inAdj[inOff[u]:inOff[u+1]] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	perm := make([]V, n)
	parallel.For(0, n, parallel.Threads(threads), func(i int) {
		perm[inv[i]] = V(i)
	})
	return &Permutation{Perm: perm, Inv: inv}
}

// ApplyUndirected builds the relabeled copy of g under p using the parallel
// builder: edge {u,v} becomes {Perm[u],Perm[v]}. The result has identical
// structure (same degree multiset, same components) with permuted ids and its
// own dense edge-id space; use EdgeIDMap to translate edge-indexed results.
// Every slot is relabeled at its own position, so the edge list is symmetric
// already and g's edge-id index is not needed.
func (p *Permutation) ApplyUndirected(g *Undirected, threads int) *Undirected {
	sym := make([]Edge, len(g.adj))
	th := buildThreads(threads, len(sym))
	parallel.ForBlocks(0, g.n, th, func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			for s := g.off[u]; s < g.off[u+1]; s++ {
				sym[s] = Edge{p.Perm[u], p.Perm[g.adj[s]]}
			}
		}
	})
	off, adj := buildCSR(g.n, sym, th)
	return &Undirected{n: g.n, off: off, adj: adj}
}

// ApplyDirected builds the relabeled copy of g under p using the parallel
// builder: arc (u,v) becomes (Perm[u],Perm[v]).
func (p *Permutation) ApplyDirected(g *Directed, threads int) *Directed {
	edges := make([]Edge, len(g.outAdj))
	th := parallel.Threads(threads)
	parallel.ForBlocks(0, g.n, th, func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			for s := g.outOff[u]; s < g.outOff[u+1]; s++ {
				edges[s] = Edge{p.Perm[u], p.Perm[g.outAdj[s]]}
			}
		}
	})
	return BuildDirectedThreads(g.n, edges, threads)
}

// EdgeIDMap returns the translation from g's dense edge ids to the ids of the
// relabeled graph rg = p.ApplyUndirected(g): for original edge {u,v} with id
// k, out[k] is rg's id of {Perm[u],Perm[v]}. Used to map edge-indexed results
// (bridge flags, BiCC block assignments) computed on rg back to g's id space.
func (p *Permutation) EdgeIDMap(g, rg *Undirected, threads int) []int64 {
	eid, reid := g.EdgeIDs(), rg.EdgeIDs()
	out := make([]int64, g.NumEdges())
	parallel.ForBlocks(0, g.n, parallel.Threads(threads), func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			for s := g.off[u]; s < g.off[u+1]; s++ {
				v := g.adj[s]
				if V(u) < v {
					out[eid[s]] = reid[searchSlot(rg.off, rg.adj, p.Perm[u], p.Perm[v])]
				}
			}
		}
	})
	return out
}
