// Package graph provides the compressed-sparse-row (CSR) graph representation
// used throughout Aquila (paper §6.1): a begin-position array of length |V|+1
// and an adjacency array of length |E|. Directed graphs carry both the out-CSR
// and the in-CSR (SCC needs backward traversals). Undirected graphs map every
// adjacency slot to a dense edge id so per-undirected-edge state (block
// labels, bridge flags) can be stored once per edge even though CSR stores
// each edge twice; that index is built on first use, since connectivity reads
// and union-find updates never need it.
package graph

import (
	"sync"
	"sync/atomic"
)

// V is a vertex identifier. Aquila targets laptop-scale graphs, so 32 bits of
// vertex id and 64 bits of edge offset are ample.
type V = uint32

// NoVertex is the sentinel "no such vertex" value (used for BFS parents of
// unvisited vertices and component labels of removed vertices).
const NoVertex V = ^V(0)

// Directed is an immutable directed graph in CSR form with both edge
// directions materialized.
type Directed struct {
	n      int
	outOff []int64
	outAdj []V
	inOff  []int64
	inAdj  []V
}

// NumVertices returns |V|.
func (g *Directed) NumVertices() int { return g.n }

// NumArcs returns the number of directed edges.
func (g *Directed) NumArcs() int64 { return int64(len(g.outAdj)) }

// OutDegree returns the out-degree of u.
func (g *Directed) OutDegree(u V) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns the in-degree of u.
func (g *Directed) InDegree(u V) int { return int(g.inOff[u+1] - g.inOff[u]) }

// Out returns u's out-neighbors as a shared slice view; callers must not
// modify it.
func (g *Directed) Out(u V) []V { return g.outAdj[g.outOff[u]:g.outOff[u+1]] }

// In returns u's in-neighbors as a shared slice view; callers must not
// modify it.
func (g *Directed) In(u V) []V { return g.inAdj[g.inOff[u]:g.inOff[u+1]] }

// HasArc reports whether the directed edge u→v exists. It binary-searches
// u's sorted out-adjacency list.
func (g *Directed) HasArc(u, v V) bool { return searchSlot(g.outOff, g.outAdj, u, v) >= 0 }

// OutCSR returns the raw out-direction CSR arrays (offsets of length |V|+1,
// adjacency of length |E|) as shared views; callers must not modify them.
// This is the flat representation the traversal hot paths scan directly.
func (g *Directed) OutCSR() (off []int64, adj []V) { return g.outOff, g.outAdj }

// InCSR returns the raw in-direction CSR arrays as shared views; callers must
// not modify them.
func (g *Directed) InCSR() (off []int64, adj []V) { return g.inOff, g.inAdj }

// MaxOutDegreeVertex returns the vertex with the highest out+in degree — the
// paper's heuristic master pivot, "always in the single large task" (§5.3).
func (g *Directed) MaxOutDegreeVertex() V {
	best := V(0)
	bestDeg := -1
	for u := 0; u < g.n; u++ {
		d := g.OutDegree(V(u)) + g.InDegree(V(u))
		if d > bestDeg {
			bestDeg = d
			best = V(u)
		}
	}
	return best
}

// Undirected is an immutable undirected graph in symmetric CSR form. Every
// undirected edge {u,v} occupies two adjacency slots. The dense edge-id index
// (slot -> id in [0, NumEdges())) is only read by the edge-indexed kernels,
// so it is built on first use by EdgeIDs; an undirected .aqg load supplies it
// ready-made. An Undirected must not be copied by value.
type Undirected struct {
	n   int
	off []int64
	adj []V

	eidMu sync.Mutex
	eid   atomic.Pointer[[]int64] // nil until EdgeIDs first runs
}

// NumVertices returns |V|.
func (g *Undirected) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges (half the adjacency slots).
func (g *Undirected) NumEdges() int64 { return int64(len(g.adj) / 2) }

// Degree returns the degree of u.
func (g *Undirected) Degree(u V) int { return int(g.off[u+1] - g.off[u]) }

// Neighbors returns u's neighbors as a shared slice view; callers must not
// modify it.
func (g *Undirected) Neighbors(u V) []V { return g.adj[g.off[u]:g.off[u+1]] }

// CSR returns the raw symmetric CSR arrays (offsets of length |V|+1,
// adjacency of length 2|E|) as shared views; callers must not modify them.
// This is the flat representation the traversal hot paths scan directly.
func (g *Undirected) CSR() (off []int64, adj []V) { return g.off, g.adj }

// SlotRange returns the half-open adjacency slot range of u, for callers that
// need the slot index (and hence the edge id) of each incident edge.
func (g *Undirected) SlotRange(u V) (lo, hi int64) { return g.off[u], g.off[u+1] }

// SlotTarget returns the neighbor stored at adjacency slot s.
func (g *Undirected) SlotTarget(s int64) V { return g.adj[s] }

// EdgeIDs returns the dense edge-id index as a shared view: entry s is the id
// of the edge at adjacency slot s, the same from either endpoint. Ids are
// dense in (lower endpoint, slot) order. The first call builds the index
// (one serial cursor pass, 8 bytes per slot); later calls, from any
// goroutine, return the same slice. Kernels fetch it once at entry, outside
// their per-slot loops.
func (g *Undirected) EdgeIDs() []int64 {
	if p := g.eid.Load(); p != nil {
		return *p
	}
	g.eidMu.Lock()
	defer g.eidMu.Unlock()
	if p := g.eid.Load(); p != nil {
		return *p
	}
	eid := make([]int64, len(g.adj))
	if !walkEdges(g.off, g.adj, func(s, r, k int64) bool {
		eid[s], eid[r] = k, k
		return true
	}) {
		// No builder emits an asymmetric CSR and every loader rejects one.
		panic("graph: asymmetric CSR — reverse edge missing")
	}
	g.eid.Store(&eid)
	return eid
}

// EdgeIDsBuilt reports whether the edge-id index exists yet, without
// building it.
func (g *Undirected) EdgeIDsBuilt() bool { return g.eid.Load() != nil }

// EdgeIDOf returns the dense edge id of edge {u,v}, or -1 if no such edge
// exists. It binary-searches u's sorted adjacency list.
func (g *Undirected) EdgeIDOf(u, v V) int64 {
	if s := searchSlot(g.off, g.adj, u, v); s >= 0 {
		return g.EdgeIDs()[s]
	}
	return -1
}

// HasEdge reports whether edge {u,v} exists. It binary-searches u's sorted
// adjacency list and never builds the edge-id index.
func (g *Undirected) HasEdge(u, v V) bool { return searchSlot(g.off, g.adj, u, v) >= 0 }

// EdgeEndpoints returns one (u,v) pair for every dense edge id, with u < v.
// Ids are dense in (lower endpoint, slot) order, so listing every upper slot
// in that order yields them without the edge-id index. It is O(|E|) and
// intended for result reporting, not hot paths.
func (g *Undirected) EdgeEndpoints() [][2]V {
	out := make([][2]V, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(V(u)) {
			if V(u) < v {
				out = append(out, [2]V{V(u), v})
			}
		}
	}
	return out
}

// MaxDegreeVertex returns the vertex with the highest degree — the master
// pivot heuristic (§5.3).
func (g *Undirected) MaxDegreeVertex() V {
	best := V(0)
	bestDeg := -1
	for u := 0; u < g.n; u++ {
		if d := g.Degree(V(u)); d > bestDeg {
			bestDeg = d
			best = V(u)
		}
	}
	return best
}

// searchSlot returns the slot of target in u's sorted adjacency segment, or
// -1 if absent.
func searchSlot(off []int64, adj []V, u, target V) int64 {
	lo, hi := off[u], off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case adj[mid] < target:
			lo = mid + 1
		case adj[mid] > target:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}
