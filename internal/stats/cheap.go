package stats

import "aquila/internal/graph"

// Cheap is the statistic bundle the adaptive CC policy chooser consumes
// (degree skew, average degree, vertex/edge counts — the same family of
// signals trim and plan already key on). Over an undirected graph it touches
// only the CSR offset array, never the adjacency, so computing it before a
// kernel is a rounding error next to the kernel itself.
type Cheap struct {
	// Vertices and Edges are |V| and undirected |E|.
	Vertices int
	Edges    int64
	// AvgDeg is the mean undirected degree 2|E|/|V| (0 on the empty graph).
	AvgDeg float64
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

// derive fills the ratios from the counts of a non-empty graph.
func (c *Cheap) derive() {
	c.AvgDeg = 2 * float64(c.Edges) / float64(c.Vertices)
	if c.AvgDeg > 0 {
		c.Skew = float64(c.MaxDeg) / c.AvgDeg
	}
}
