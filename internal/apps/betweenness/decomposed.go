package betweenness

import (
	"sort"

	"aquila/internal/bicc"
	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// Decomposed computes exact betweenness centrality through the biconnected-
// component decomposition — the articulation-point-guided strategy of the
// paper's §2.1 (application 2, after Wang et al. [50]): since every path
// crossing two blocks must pass the articulation point between them, Brandes
// only ever needs to run *inside one block*, with vertex weights accounting
// for the mass hanging off each cut vertex, plus a closed-form cross-branch
// term at every articulation point. Output is identical to Brandes (ordered-
// pair convention) up to floating-point rounding.
//
// Why it is exact: all paths between two vertices of a block stay inside the
// block (leaving would re-enter through the same cut vertex, which no simple
// path does). A pair (s,t) therefore projects onto each block B as the pair
// of cut vertices (or members) through which its path enters and leaves B;
// within-B contributions are σ-ratios between the projections, weighted by
// how many (s,t) pairs share them — exactly weighted Brandes. A cut vertex c
// additionally intermediates every pair from different components of G−c
// (one component per block containing c) with ratio 1 — the cross-branch
// term.
func Decomposed(g *graph.Undirected, threads int) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	p := parallel.Threads(threads)
	res := bicc.Run(g, bicc.Options{Threads: p})
	numBlocks := res.NumBlocks
	if numBlocks == 0 {
		return bc
	}

	// Block membership: unique vertices per block, from the per-edge labels.
	eps := g.EdgeEndpoints()
	members := make([][]graph.V, numBlocks)
	for eid, b := range res.BlockOf {
		members[b] = append(members[b], eps[eid][0], eps[eid][1])
	}
	for b := range members {
		sort.Slice(members[b], func(i, j int) bool { return members[b][i] < members[b][j] })
		out := members[b][:0]
		var prev graph.V
		for i, v := range members[b] {
			if i == 0 || v != prev {
				out = append(out, v)
			}
			prev = v
		}
		members[b] = out
	}

	// Block-cut forest: nodes are blocks [0,numBlocks) and cut vertices
	// (numBlocks + cutIndex). Edges join a block to each of its cut members.
	cutIndex := make(map[graph.V]int)
	var cuts []graph.V
	for v := 0; v < n; v++ {
		if res.IsAP[v] {
			cutIndex[graph.V(v)] = len(cuts)
			cuts = append(cuts, graph.V(v))
		}
	}
	numNodes := numBlocks + len(cuts)
	adj := make([][]int32, numNodes)
	nonCutCount := make([]int64, numBlocks) // original vertices owned by each block node
	for b := 0; b < numBlocks; b++ {
		for _, v := range members[b] {
			if ci, ok := cutIndex[v]; ok {
				adj[b] = append(adj[b], int32(numBlocks+ci))
				adj[numBlocks+ci] = append(adj[numBlocks+ci], int32(b))
			} else {
				nonCutCount[b]++
			}
		}
	}

	// Rooted traversal per tree component: subtree original-vertex counts.
	// cnt(block) = its non-cut members + Σ cnt(child cuts);
	// cnt(cut)   = 1 + Σ cnt(child blocks).
	parent := make([]int32, numNodes)
	cnt := make([]int64, numNodes)
	compTotal := make([]int64, numNodes) // per node: N of its component
	order := make([]int32, 0, numNodes)
	visited := make([]bool, numNodes)
	for root := 0; root < numNodes; root++ {
		if visited[root] {
			continue
		}
		start := len(order)
		visited[root] = true
		parent[root] = -1
		order = append(order, int32(root))
		for head := start; head < len(order); head++ {
			u := order[head]
			for _, w := range adj[u] {
				if !visited[w] {
					visited[w] = true
					parent[w] = u
					order = append(order, w)
				}
			}
		}
		// Accumulate counts bottom-up (reverse BFS order).
		var total int64
		for i := len(order) - 1; i >= start; i-- {
			u := order[i]
			if int(u) < numBlocks {
				cnt[u] += nonCutCount[u]
			} else {
				cnt[u]++
			}
			if parent[u] >= 0 {
				cnt[parent[u]] += cnt[u]
			} else {
				total = cnt[u]
			}
		}
		for i := start; i < len(order); i++ {
			compTotal[order[i]] = total
		}
	}

	// hang(B, c): original vertices outside B whose access to B is via c.
	// With the rooted forest: child cut → cnt(c) - 1; parent cut → N - cnt(B) - 1.
	hang := func(b int, c graph.V) int64 {
		cn := int32(numBlocks + cutIndex[c])
		if parent[cn] == int32(b) {
			return cnt[cn] - 1
		}
		return compTotal[b] - cnt[b] - 1
	}

	// Cross-branch term at every cut vertex: branches of G−c correspond to
	// the blocks containing c; branch(B) = N - 1 - hang(B, c).
	for ci, c := range cuts {
		node := numBlocks + ci
		var sum, sum2 float64
		for _, bn := range adj[node] {
			br := float64(compTotal[bn] - 1 - hang(int(bn), c))
			sum += br
			sum2 += br * br
		}
		bc[c] += sum*sum - sum2
	}

	// Per-block weighted Brandes, task-parallel across blocks.
	eids := g.EdgeIDs()
	partial := make([][]float64, p)
	parallel.ForChunksDynamic(0, numBlocks, p, 1, func(lo, hi, w int) {
		if partial[w] == nil {
			partial[w] = make([]float64, n)
		}
		scratch := newBlockScratch(n)
		for b := lo; b < hi; b++ {
			if len(members[b]) < 3 {
				continue // a bridge block has no interior vertices
			}
			weight := func(v graph.V) float64 {
				if res.IsAP[v] {
					return float64(1 + hang(b, v))
				}
				return 1
			}
			for _, src := range members[b] {
				scratch.run(g, eids, src, int64(b), res.BlockOf, weight, partial[w])
			}
		}
	})
	for _, part := range partial {
		if part == nil {
			continue
		}
		for v := range bc {
			bc[v] += part[v]
		}
	}
	return bc
}

// blockScratch is Brandes state for traversals restricted to one block's
// edges, reset in O(touched) between runs.
type blockScratch struct {
	sigma []float64
	level []int32
	delta []float64
	order []graph.V
}

func newBlockScratch(n int) *blockScratch {
	s := &blockScratch{
		sigma: make([]float64, n),
		level: make([]int32, n),
		delta: make([]float64, n),
	}
	for i := range s.level {
		s.level[i] = -1
	}
	return s
}

// run is one weighted-Brandes source pass over the edges whose BlockOf label
// equals block; eids is g's edge-id index.
func (s *blockScratch) run(g *graph.Undirected, eids []int64, source graph.V, block int64, blockOf []int64, weight func(graph.V) float64, bc []float64) {
	s.order = s.order[:0]
	s.sigma[source] = 1
	s.level[source] = 0
	s.order = append(s.order, source)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		lo, hi := g.SlotRange(u)
		for slot := lo; slot < hi; slot++ {
			if blockOf[eids[slot]] != block {
				continue
			}
			v := g.SlotTarget(slot)
			if s.level[v] == -1 {
				s.level[v] = s.level[u] + 1
				s.order = append(s.order, v)
			}
			if s.level[v] == s.level[u]+1 {
				s.sigma[v] += s.sigma[u]
			}
		}
	}
	sw := weight(source)
	for i := len(s.order) - 1; i >= 1; i-- {
		v := s.order[i]
		coeff := (weight(v) + s.delta[v]) / s.sigma[v]
		lo, hi := g.SlotRange(v)
		for slot := lo; slot < hi; slot++ {
			if blockOf[eids[slot]] != block {
				continue
			}
			u := g.SlotTarget(slot)
			if s.level[u] == s.level[v]-1 {
				s.delta[u] += s.sigma[u] * coeff
			}
		}
		bc[v] += sw * s.delta[v]
	}
	for _, v := range s.order {
		s.sigma[v] = 0
		s.level[v] = -1
		s.delta[v] = 0
	}
}
