package serialdfs

import "aquila/internal/graph"

// BiCCResult is the block decomposition of an undirected graph.
type BiCCResult struct {
	// IsAP[v] reports whether v is an articulation point.
	IsAP []bool
	// BlockOf maps each dense undirected edge id to its biconnected-component
	// label in [0, NumBlocks). Every edge is in exactly one block.
	BlockOf []int64
	// NumBlocks is the number of biconnected components (isolated vertices
	// have no edges and therefore no block).
	NumBlocks int
}

// BiCC runs the iterative Hopcroft–Tarjan biconnected-components algorithm:
// one DFS per connected component with an edge stack; when a tree edge (p,v)
// satisfies low[v] >= disc[p], the edges above it on the stack form one block
// and p is an articulation point (unless p is the DFS root, which is an AP
// iff it has at least two tree children).
func BiCC(g *graph.Undirected) *BiCCResult {
	n := g.NumVertices()
	res := &BiCCResult{
		IsAP:    make([]bool, n),
		BlockOf: make([]int64, g.NumEdges()),
	}
	for i := range res.BlockOf {
		res.BlockOf[i] = -1
	}
	const unvisited = -1
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = unvisited
	}
	var timer int32
	eids := g.EdgeIDs()
	edgeStack := make([]int64, 0, 1024)

	type frame struct {
		v          graph.V
		slot       int64 // next adjacency slot to inspect
		parentEdge int64 // dense edge id of the tree edge into v (-1 for root)
	}
	frames := make([]frame, 0, 1024)

	for r := 0; r < n; r++ {
		if disc[r] != unvisited {
			continue
		}
		lo, _ := g.SlotRange(graph.V(r))
		disc[r] = timer
		low[r] = timer
		timer++
		frames = append(frames[:0], frame{v: graph.V(r), slot: lo, parentEdge: -1})
		rootChildren := 0

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			_, hi := g.SlotRange(f.v)
			if f.slot < hi {
				s := f.slot
				f.slot++
				w := g.SlotTarget(s)
				e := eids[s]
				if e == f.parentEdge {
					continue // the tree edge back to the parent
				}
				if disc[w] == unvisited {
					edgeStack = append(edgeStack, e)
					disc[w] = timer
					low[w] = timer
					timer++
					wlo, _ := g.SlotRange(w)
					frames = append(frames, frame{v: w, slot: wlo, parentEdge: e})
				} else if disc[w] < disc[f.v] {
					// Back edge to an ancestor.
					edgeStack = append(edgeStack, e)
					if disc[w] < low[f.v] {
						low[f.v] = disc[w]
					}
				}
				// disc[w] > disc[f.v]: the edge was already handled from w's
				// side as a back edge — skip.
				continue
			}
			// f.v is finished; fold into the parent.
			fin := *f
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				break
			}
			p := &frames[len(frames)-1]
			if low[fin.v] < low[p.v] {
				low[p.v] = low[fin.v]
			}
			if low[fin.v] >= disc[p.v] {
				// p separates fin.v's subtree: pop one block.
				blk := int64(res.NumBlocks)
				res.NumBlocks++
				for {
					e := edgeStack[len(edgeStack)-1]
					edgeStack = edgeStack[:len(edgeStack)-1]
					res.BlockOf[e] = blk
					if e == fin.parentEdge {
						break
					}
				}
				if len(frames) == 1 {
					rootChildren++
				} else {
					res.IsAP[p.v] = true
				}
			}
		}
		if rootChildren >= 2 {
			res.IsAP[r] = true
		}
	}
	return res
}

// APs returns just the articulation-point flags (the paper's "AP only" query,
// §3); it is BiCC minus the block bookkeeping.
func APs(g *graph.Undirected) []bool {
	return BiCC(g).IsAP
}
