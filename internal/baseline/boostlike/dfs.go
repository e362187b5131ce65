// Package boostlike reproduces the Boost Graph Library comparator rows of
// Table 2: the same serial algorithms as package serialdfs, but driven
// through a generic visitor/event abstraction with dynamic dispatch on every
// vertex and edge event — the source of Boost's constant-factor overhead that
// the paper's "Boost" rows measure. (See DESIGN.md §5 on substitutions.)
package boostlike

import "aquila/internal/graph"

// DFSVisitor receives the events of a depth-first traversal, mirroring
// boost::dfs_visitor. Every callback is an interface call by design.
type DFSVisitor interface {
	// StartVertex fires once per DFS root.
	StartVertex(v graph.V)
	// DiscoverVertex fires when a vertex is first reached.
	DiscoverVertex(v graph.V)
	// TreeEdge fires for the edge that discovers a new vertex.
	TreeEdge(u, v graph.V, eid int64)
	// BackEdge fires for an edge to an already-discovered, unfinished vertex.
	BackEdge(u, v graph.V, eid int64)
	// ForwardOrCrossEdge fires for the remaining edge class.
	ForwardOrCrossEdge(u, v graph.V, eid int64)
	// FinishVertex fires when a vertex's adjacency is exhausted.
	FinishVertex(v graph.V)
}

// NullVisitor implements DFSVisitor with empty methods; embed it to override
// only the events an algorithm cares about (boost::default_dfs_visitor).
type NullVisitor struct{}

func (NullVisitor) StartVertex(graph.V)                        {}
func (NullVisitor) DiscoverVertex(graph.V)                     {}
func (NullVisitor) TreeEdge(graph.V, graph.V, int64)           {}
func (NullVisitor) BackEdge(graph.V, graph.V, int64)           {}
func (NullVisitor) ForwardOrCrossEdge(graph.V, graph.V, int64) {}
func (NullVisitor) FinishVertex(graph.V)                       {}

type color uint8

const (
	white color = iota // undiscovered
	gray               // on the stack
	black              // finished
)

// UndirectedDFS drives an iterative depth-first search over every component
// of an undirected graph, emitting visitor events. The parent tree edge is
// not re-reported to the visitor (matching undirected_dfs semantics).
func UndirectedDFS(g *graph.Undirected, vis DFSVisitor) {
	n := g.NumVertices()
	colors := make([]color, n)
	eids := g.EdgeIDs()
	type frame struct {
		v          graph.V
		slot       int64
		parentEdge int64
	}
	stack := make([]frame, 0, 1024)
	for r := 0; r < n; r++ {
		if colors[r] != white {
			continue
		}
		vis.StartVertex(graph.V(r))
		colors[r] = gray
		vis.DiscoverVertex(graph.V(r))
		lo, _ := g.SlotRange(graph.V(r))
		stack = append(stack[:0], frame{v: graph.V(r), slot: lo, parentEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			_, hi := g.SlotRange(f.v)
			if f.slot >= hi {
				colors[f.v] = black
				vis.FinishVertex(f.v)
				stack = stack[:len(stack)-1]
				continue
			}
			s := f.slot
			f.slot++
			w := g.SlotTarget(s)
			eid := eids[s]
			if eid == f.parentEdge {
				continue
			}
			switch colors[w] {
			case white:
				vis.TreeEdge(f.v, w, eid)
				colors[w] = gray
				vis.DiscoverVertex(w)
				wlo, _ := g.SlotRange(w)
				stack = append(stack, frame{v: w, slot: wlo, parentEdge: eid})
			case gray:
				vis.BackEdge(f.v, w, eid)
			default:
				vis.ForwardOrCrossEdge(f.v, w, eid)
			}
		}
	}
}

// DirectedDFS drives an iterative DFS over a directed graph, emitting
// visitor events with the standard white/gray/black edge classification.
func DirectedDFS(g *graph.Directed, vis DFSVisitor) {
	n := g.NumVertices()
	colors := make([]color, n)
	type frame struct {
		v    graph.V
		next int
	}
	stack := make([]frame, 0, 1024)
	for r := 0; r < n; r++ {
		if colors[r] != white {
			continue
		}
		vis.StartVertex(graph.V(r))
		colors[r] = gray
		vis.DiscoverVertex(graph.V(r))
		stack = append(stack[:0], frame{v: graph.V(r)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.Out(f.v)
			if f.next >= len(out) {
				colors[f.v] = black
				vis.FinishVertex(f.v)
				stack = stack[:len(stack)-1]
				continue
			}
			w := out[f.next]
			f.next++
			switch colors[w] {
			case white:
				vis.TreeEdge(f.v, w, -1)
				colors[w] = gray
				vis.DiscoverVertex(w)
				stack = append(stack, frame{v: w})
			case gray:
				vis.BackEdge(f.v, w, -1)
			default:
				vis.ForwardOrCrossEdge(f.v, w, -1)
			}
		}
	}
}
