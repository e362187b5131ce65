package serialdfs

import "aquila/internal/graph"

// Bridges returns a per-dense-edge-id flag slice marking the bridges (cut
// edges) of an undirected graph, via the classic low-link DFS: a tree edge
// (p,v) is a bridge iff low[v] > disc[p].
func Bridges(g *graph.Undirected) []bool {
	n := g.NumVertices()
	bridge := make([]bool, g.NumEdges())
	const unvisited = -1
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = unvisited
	}
	var timer int32
	eids := g.EdgeIDs()

	type frame struct {
		v          graph.V
		slot       int64
		parentEdge int64
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
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			_, hi := g.SlotRange(f.v)
			if f.slot < hi {
				s := f.slot
				f.slot++
				w := g.SlotTarget(s)
				e := eids[s]
				if e == f.parentEdge {
					continue
				}
				if disc[w] == unvisited {
					disc[w] = timer
					low[w] = timer
					timer++
					wlo, _ := g.SlotRange(w)
					frames = append(frames, frame{v: w, slot: wlo, parentEdge: e})
				} else if disc[w] < low[f.v] {
					low[f.v] = disc[w]
				}
				continue
			}
			fin := *f
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				break
			}
			p := &frames[len(frames)-1]
			if low[fin.v] < low[p.v] {
				low[p.v] = low[fin.v]
			}
			if low[fin.v] > disc[p.v] {
				bridge[fin.parentEdge] = true
			}
		}
	}
	return bridge
}

// BgCC labels the bridgeless (2-edge-connected) components: the connected
// components of the graph after deleting all bridges. Labels are the smallest
// vertex id per component.
func BgCC(g *graph.Undirected) []uint32 {
	bridge := Bridges(g)
	return CCAvoidingEdges(g, bridge)
}

// CCAvoidingEdges labels connected components while treating every edge whose
// dense id is flagged as deleted. It is shared by the serial and Aquila BgCC
// paths and by the verification package.
func CCAvoidingEdges(g *graph.Undirected, deleted []bool) []uint32 {
	n := g.NumVertices()
	label := make([]uint32, n)
	for i := range label {
		label[i] = graph.NoVertex
	}
	eids := g.EdgeIDs()
	stack := make([]graph.V, 0, 1024)
	for r := 0; r < n; r++ {
		if label[r] != graph.NoVertex {
			continue
		}
		root := uint32(r)
		label[r] = root
		stack = append(stack[:0], graph.V(r))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.SlotRange(u)
			for s := lo; s < hi; s++ {
				if deleted[eids[s]] {
					continue
				}
				v := g.SlotTarget(s)
				if label[v] == graph.NoVertex {
					label[v] = root
					stack = append(stack, v)
				}
			}
		}
	}
	return label
}
