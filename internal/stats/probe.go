package stats

import (
	"sort"

	"aquila/internal/graph"
	"aquila/internal/parallel"
)

const (
	// probeTrimRounds bounds the liveness probe: unlike the real trim, which
	// iterates to a fixed point (O(|V|) rounds on a path graph), the probe
	// runs a constant number of rounds so its cost stays at a couple of edge
	// scans no matter the graph shape.
	probeTrimRounds = 2
	// probeMutualSamples caps the reciprocated-arc sample.
	probeMutualSamples = 1024
)

// SCCProbe bundles the directed-graph signals scc.ChoosePolicy consumes:
// the cheap degree-scan statistics plus a bounded post-trim liveness probe
// and a sampled reciprocity estimate — together, a DAG-ness detector. The
// probe costs O(probeTrimRounds · (|V|+|A|)), a small constant fraction of
// any SCC kernel that would follow it.
type SCCProbe struct {
	Cheap Cheap
	// PostTrimLive estimates the fraction of vertices the size-1 trim
	// criterion cannot resolve within probeTrimRounds rounds — the mass the
	// tail strategy will actually face. 0 on the empty graph; near 0 on
	// DAG-like graphs whose SCCs trimming dissolves.
	PostTrimLive float64
	// MutualFrac is the fraction of sampled arcs that are reciprocated — a
	// direct cyclicity signal (near 0 on DAGs, high on social graphs).
	MutualFrac float64
}

// CheapDirected is CheapUndirected's directed sibling: Edges counts arcs,
// degree is total (in+out) degree, AvgDeg is 2|A|/|V| (each arc contributes
// one out- and one in-endpoint).
func CheapDirected(g *graph.Directed) Cheap {
	c := Cheap{Vertices: g.NumVertices(), Edges: g.NumArcs()}
	if c.Vertices == 0 {
		return c
	}
	inOff, _ := g.InCSR()
	for v := 0; v < c.Vertices; v++ {
		d := g.OutDegree(graph.V(v)) + int(inOff[v+1]-inOff[v])
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

// ProbeDirected computes the SCC policy probe for g.
func ProbeDirected(g *graph.Directed, threads int) SCCProbe {
	pr := SCCProbe{Cheap: CheapDirected(g)}
	n := g.NumVertices()
	if n == 0 {
		return pr
	}
	p := parallel.Threads(threads)
	inOff, inAdj := g.InCSR()

	// Bounded size-1 trim probe: a vertex with no live in-neighbor or no
	// live out-neighbor can never sit on a cycle. Detect-then-commit keeps
	// each round's decisions reading only the previous round's dead set, so
	// the parallel scan is race-free and deterministic.
	dead := make([]bool, n)
	newly := make([]bool, n)
	deadCount := 0
	for round := 0; round < probeTrimRounds; round++ {
		var cnt int64
		parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
			var local int64
			for v := lo; v < hi; v++ {
				if dead[v] {
					continue
				}
				if !probeHasLive(inAdj[inOff[v]:inOff[v+1]], dead) || !probeHasLive(g.Out(graph.V(v)), dead) {
					newly[v] = true
					local++
				}
			}
			parallel.AddI64(&cnt, local)
		})
		if cnt == 0 {
			break
		}
		parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
			for v := lo; v < hi; v++ {
				if newly[v] {
					dead[v] = true
					newly[v] = false
				}
			}
		})
		deadCount += int(cnt)
	}
	pr.PostTrimLive = float64(n-deadCount) / float64(n)

	// Reciprocity sample: deterministic pseudo-random arcs, reverse-checked
	// through the binary-search HasArc.
	if m := g.NumArcs(); m > 0 {
		k := probeMutualSamples
		if int64(k) > m {
			k = int(m)
		}
		off, adj := g.OutCSR()
		mutual := 0
		for i := 0; i < k; i++ {
			ai := int64(probeMix64(uint64(i)) % uint64(m))
			u := graph.V(sort.Search(n, func(v int) bool { return off[v+1] > ai }))
			v := adj[ai]
			if g.HasArc(v, u) {
				mutual++
			}
		}
		pr.MutualFrac = float64(mutual) / float64(k)
	}
	return pr
}

// probeHasLive reports whether any neighbor is still live.
func probeHasLive(ns []graph.V, dead []bool) bool {
	for _, u := range ns {
		if !dead[u] {
			return true
		}
	}
	return false
}

// probeMix64 is SplitMix64's finalizer — the deterministic sample-index
// generator (same mixer the kernels use for pivot shuffling).
func probeMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
