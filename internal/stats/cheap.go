package stats

import (
	"sync/atomic"

	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// Cheap is the statistic bundle the adaptive CC policy chooser consumes
// (degree skew, density, vertex/edge counts — the same family of signals
// trim and plan already key on). Over an undirected graph it touches only
// the CSR offset array, never the adjacency, so computing it before a kernel
// is a rounding error next to the kernel itself. The exact value for a
// directed graph's undirected view (CheapUndirectedOf) reads adjacency
// instead, in one count pass, because the view's degrees are not stored.
type Cheap struct {
	// Vertices and Edges are |V| and undirected |E|.
	Vertices int
	Edges    int64
	// AvgDeg is the mean undirected degree 2|E|/|V| (0 on the empty graph).
	AvgDeg float64
	// Density is |E| over the complete-graph edge count |V|(|V|-1)/2.
	Density float64
	// MaxDeg is the maximum degree.
	MaxDeg int
	// Skew is MaxDeg/AvgDeg — the hub-dominance signal that separates
	// social-tail graphs (one giant component worth skipping) from flat
	// meshes. 0 when AvgDeg is 0.
	Skew float64
	// Isolated counts zero-degree vertices (the trim-orphan population).
	Isolated int
}

// CheapUndirected computes Cheap from one pass over the degree array.
func CheapUndirected(g *graph.Undirected) Cheap {
	c := Cheap{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	if c.Vertices == 0 {
		return c
	}
	for v := 0; v < c.Vertices; v++ {
		d := g.Degree(graph.V(v))
		if d > c.MaxDeg {
			c.MaxDeg = d
		}
		if d == 0 {
			c.Isolated++
		}
	}
	c.derive()
	return c
}

// cheapChunk is the vertex grain of CheapUndirectedOf's count pass.
const cheapChunk = 2048

// CheapUndirectedOf computes CheapUndirected(graph.Undirect(d)) exactly,
// without building the view: one parallel pass counts |Out(u) ∪ In(u)| —
// u's undirected degree — for every vertex. It is the count pass Undirect
// runs, with no write pass and nothing allocated per vertex; the same sums
// give the view's edge count. It reads every arc twice, so callers compute
// it once per graph.
func CheapUndirectedOf(d *graph.Directed, threads int) Cheap {
	c := Cheap{Vertices: d.NumVertices()}
	if c.Vertices == 0 {
		return c
	}
	var slots, isolated, maxDeg int64
	parallel.ForChunksDynamic(0, c.Vertices, parallel.Threads(threads), cheapChunk, func(lo, hi, _ int) {
		var s, iso, mx int64
		for v := lo; v < hi; v++ {
			deg := graph.UnionSize(d.Out(graph.V(v)), d.In(graph.V(v)))
			s += deg
			mx = max(mx, deg)
			if deg == 0 {
				iso++
			}
		}
		atomic.AddInt64(&slots, s)
		atomic.AddInt64(&isolated, iso)
		for cur := atomic.LoadInt64(&maxDeg); mx > cur && !atomic.CompareAndSwapInt64(&maxDeg, cur, mx); {
			cur = atomic.LoadInt64(&maxDeg)
		}
	})
	c.Edges, c.MaxDeg, c.Isolated = slots/2, int(maxDeg), int(isolated)
	c.derive()
	return c
}

// derive fills the ratios from the counts of a non-empty undirected graph.
func (c *Cheap) derive() {
	c.AvgDeg = 2 * float64(c.Edges) / float64(c.Vertices)
	if c.Vertices > 1 {
		c.Density = float64(c.Edges) / (float64(c.Vertices) * float64(c.Vertices-1) / 2)
	}
	if c.AvgDeg > 0 {
		c.Skew = float64(c.MaxDeg) / c.AvgDeg
	}
}
