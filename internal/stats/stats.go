// Package stats computes descriptive graph statistics: degree distribution
// summaries, reciprocity (the fraction of mutual arcs, which drives how much
// of a WCC is strongly connected, and which gives a directed graph's
// undirected edge count without building its undirected view), and a
// double-sweep BFS diameter estimate. The CLI's "stats" query and the
// workload documentation use these. It also computes the probes the
// adaptive policy choosers read: Cheap for CC, from an undirected graph's
// offsets, and the SCC and BiCC probes.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"aquila/internal/bfs"
	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// Degrees summarizes a degree distribution.
type Degrees struct {
	Min, Max      int
	Mean          float64
	P50, P90, P99 int
}

// DegreeStats summarizes the undirected degree distribution.
func DegreeStats(g *graph.Undirected) Degrees {
	n := g.NumVertices()
	if n == 0 {
		return Degrees{}
	}
	deg := make([]int, n)
	sum := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.V(v))
		sum += deg[v]
	}
	sort.Ints(deg)
	pct := func(p float64) int { return deg[int(p*float64(n-1))] }
	return Degrees{
		Min:  deg[0],
		Max:  deg[n-1],
		Mean: float64(sum) / float64(n),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
}

// Reciprocity returns the fraction of directed arcs whose reverse arc also
// exists (1.0 for a symmetric graph).
func Reciprocity(g *graph.Directed) float64 {
	if g.NumArcs() == 0 {
		return 0
	}
	return float64(MutualArcs(g, 1)) / float64(g.NumArcs())
}

// mutualChunk is the vertex grain of MutualArcs.
const mutualChunk = 2048

// MutualArcs counts the arcs whose reverse arc also exists, with up to
// threads workers (Threads semantics), reading the out-CSR alone: for each
// arc u→v with u < v it binary-searches u in v's out-row. Each mutual pair
// is one undirected edge, so g's undirected view has NumArcs() -
// MutualArcs()/2 edges.
func MutualArcs(g *graph.Directed, threads int) int64 {
	var mutual atomic.Int64
	parallel.ForChunksDynamic(0, g.NumVertices(), parallel.Threads(threads), mutualChunk, func(lo, hi, _ int) {
		var pairs int64
		for u := lo; u < hi; u++ {
			for _, v := range g.Out(graph.V(u)) {
				if graph.V(u) < v && g.HasArc(v, graph.V(u)) {
					pairs++
				}
			}
		}
		mutual.Add(2 * pairs)
	})
	return mutual.Load()
}

// ApproxDiameter lower-bounds the diameter of the component containing the
// max-degree vertex with the classic double-sweep: BFS to the farthest vertex,
// then BFS again from there.
func ApproxDiameter(g *graph.Undirected, threads int) int32 {
	if g.NumVertices() == 0 {
		return 0
	}
	first := bfs.NewTree(g.NumVertices())
	first.Run(g, g.MaxDegreeVertex(), nil, bfs.Options{Threads: threads})
	far := deepest(first)
	second := bfs.NewTree(g.NumVertices())
	second.Run(g, far, nil, bfs.Options{Threads: threads})
	return second.MaxLevel
}

func deepest(t *bfs.Tree) graph.V {
	best := graph.V(0)
	bestLevel := int32(-1)
	for v, l := range t.Level {
		if l > bestLevel {
			bestLevel = l
			best = graph.V(v)
		}
	}
	return best
}

// Render formats a one-graph statistics report.
func Render(d *graph.Directed, u *graph.Undirected, threads int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices:       %d\n", u.NumVertices())
	if d != nil {
		fmt.Fprintf(&b, "directed arcs:  %d\n", d.NumArcs())
		fmt.Fprintf(&b, "reciprocity:    %.2f\n", Reciprocity(d))
	}
	fmt.Fprintf(&b, "und. edges:     %d\n", u.NumEdges())
	deg := DegreeStats(u)
	fmt.Fprintf(&b, "degree:         min %d, p50 %d, mean %.1f, p90 %d, p99 %d, max %d\n",
		deg.Min, deg.P50, deg.Mean, deg.P90, deg.P99, deg.Max)
	fmt.Fprintf(&b, "diameter (est): >= %d (double sweep from the max-degree component)",
		ApproxDiameter(u, threads))
	return b.String()
}
