// Package trim implements the workload-reduction trims of paper §4, Fig. 7:
// subgraph patterns whose XCC membership is decidable locally, removed before
// the parallel computation ever starts. Labels use the convention that
// graph.NoVertex means "not yet assigned"; each trim assigns final component
// labels to the vertices it removes.
package trim

import (
	"sync/atomic"

	"aquila/internal/graph"
	"aquila/internal/parallel"
)

// Orphans assigns every degree-0 vertex its own CC label (Fig. 7a). It
// returns the number of vertices trimmed.
func Orphans(g *graph.Undirected, label []uint32, threads int) int {
	var count int64
	parallel.ForBlocks(0, g.NumVertices(), threads, func(lo, hi, _ int) {
		var local int64
		for v := lo; v < hi; v++ {
			if label[v] == graph.NoVertex && g.Degree(graph.V(v)) == 0 {
				label[v] = uint32(v)
				local++
			}
		}
		parallel.AddI64(&count, local)
	})
	return int(count)
}

// Pairs assigns size-2 components — two vertices joined by one edge and
// nothing else (Fig. 7b) — their own CC label. Returns vertices trimmed.
func Pairs(g *graph.Undirected, label []uint32, threads int) int {
	var count int64
	parallel.ForBlocks(0, g.NumVertices(), threads, func(lo, hi, _ int) {
		var local int64
		for v := lo; v < hi; v++ {
			if atomic.LoadUint32(&label[v]) != graph.NoVertex || g.Degree(graph.V(v)) != 1 {
				continue
			}
			u := g.Neighbors(graph.V(v))[0]
			if g.Degree(u) != 1 {
				continue
			}
			// Both endpoints are degree-1: a size-2 component. The smaller id
			// claims the pair so exactly one worker writes both slots; the
			// partner's own iteration skips via the v < u guard, making the
			// atomic load above purely defensive.
			if graph.V(v) < u {
				lbl := uint32(v)
				atomic.StoreUint32(&label[v], lbl)
				atomic.StoreUint32(&label[u], lbl)
				local += 2
			}
		}
		parallel.AddI64(&count, local)
	})
	return int(count)
}

// SCCSize1 iteratively assigns singleton SCC labels to vertices with no
// unassigned in-neighbors or no unassigned out-neighbors (Fig. 7c, vertex 3;
// the classic trim of McLendon et al.). Iteration continues until a fixed
// point: peeling a vertex can expose its neighbors. Returns vertices trimmed.
func SCCSize1(g *graph.Directed, label []uint32, threads int) int {
	total := 0
	for {
		var count int64
		parallel.ForBlocks(0, g.NumVertices(), threads, func(lo, hi, _ int) {
			var local int64
			for v := lo; v < hi; v++ {
				if atomic.LoadUint32(&label[v]) != graph.NoVertex {
					continue
				}
				if !hasLiveNeighbor(g.In(graph.V(v)), label) ||
					!hasLiveNeighbor(g.Out(graph.V(v)), label) {
					atomic.StoreUint32(&label[v], uint32(v))
					local++
				}
			}
			parallel.AddI64(&count, local)
		})
		if count == 0 {
			return total
		}
		total += int(count)
	}
}

// hasLiveNeighbor reports whether any neighbor is still unassigned. Within a
// trim round vertices removed concurrently may or may not be observed; both
// outcomes are sound (a missed removal is caught next round).
func hasLiveNeighbor(ns []graph.V, label []uint32) bool {
	for _, u := range ns {
		if atomic.LoadUint32(&label[u]) == graph.NoVertex {
			return true
		}
	}
	return false
}

// SCCSize2 assigns two-vertex SCCs matching Fig. 7c's size-2 pattern
// (vertices 4, 5): u and v point at each other and, among still-unassigned
// neighbors, u and v have no other way to be in a larger SCC — all their
// other live edges are only outgoing for one side of the pair's cycle or
// only incoming for the other. Concretely (Hong's trim-2): a mutual pair
// {u,v} is its own SCC if v is u's only live in-neighbor and u is v's only
// live in-neighbor, or symmetrically for out-neighbors. Returns vertices
// trimmed.
func SCCSize2(g *graph.Directed, label []uint32, threads int) int {
	// Detect candidates in parallel, then commit serially with a recheck —
	// committing in the parallel phase could interleave two overlapping pair
	// claims observed against different label snapshots.
	p := parallel.Threads(threads)
	locals := make([][][2]graph.V, p)
	parallel.ForBlocks(0, g.NumVertices(), p, func(lo, hi, w int) {
		buf := locals[w]
		for v := lo; v < hi; v++ {
			vv := graph.V(v)
			if label[v] != graph.NoVertex {
				continue
			}
			for _, u := range g.Out(vv) {
				if u <= vv { // consider each pair once, from the smaller id
					continue
				}
				if label[u] != graph.NoVertex || !hasArc(g, u, vv) {
					continue
				}
				if pairTrimmable(g, vv, u, label) {
					buf = append(buf, [2]graph.V{vv, u})
					break
				}
			}
		}
		locals[w] = buf
	})
	count := 0
	for _, buf := range locals {
		for _, pair := range buf {
			v, u := pair[0], pair[1]
			if label[v] != graph.NoVertex || label[u] != graph.NoVertex {
				continue
			}
			if !pairTrimmable(g, v, u, label) {
				continue
			}
			label[v] = uint32(v)
			label[u] = uint32(v)
			count += 2
		}
	}
	return count
}

// pairTrimmable reports whether the mutual pair {v,u} is its own SCC under
// the Fig. 7c size-2 rule: no other live vertex can reach the pair, or the
// pair can reach no other live vertex.
func pairTrimmable(g *graph.Directed, v, u graph.V, label []uint32) bool {
	inOnly := onlyLiveNeighbor(g.In(v), u, label) && onlyLiveNeighbor(g.In(u), v, label)
	outOnly := onlyLiveNeighbor(g.Out(v), u, label) && onlyLiveNeighbor(g.Out(u), v, label)
	return inOnly || outOnly
}

func hasArc(g *graph.Directed, from, to graph.V) bool {
	out := g.Out(from)
	lo, hi := 0, len(out)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case out[mid] < to:
			lo = mid + 1
		case out[mid] > to:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// onlyLiveNeighbor reports whether want is the single still-unassigned vertex
// in ns.
func onlyLiveNeighbor(ns []graph.V, want graph.V, label []uint32) bool {
	for _, u := range ns {
		if u == want {
			continue
		}
		if atomic.LoadUint32(&label[u]) == graph.NoVertex {
			return false
		}
	}
	return true
}

// SCCLive runs the size-1 and size-2 SCC trims restricted to a live vertex
// list, iterating to a joint fixed point, and returns the per-trim counts
// plus the surviving live list (which aliases the input slice's storage). It
// is the in-loop variant used between coloring rounds, where scanning the
// whole vertex range would dwarf the remaining work.
func SCCLive(g *graph.Directed, label []uint32, live []graph.V, threads int) (size1, size2 int, remaining []graph.V) {
	for {
		var count int64
		parallel.ForChunksDynamic(0, len(live), threads, 128, func(lo, hi, _ int) {
			var local int64
			for i := lo; i < hi; i++ {
				v := live[i]
				if atomic.LoadUint32(&label[v]) != graph.NoVertex {
					continue
				}
				if !hasLiveNeighbor(g.In(v), label) || !hasLiveNeighbor(g.Out(v), label) {
					atomic.StoreUint32(&label[v], uint32(v))
					local++
				}
			}
			parallel.AddI64(&count, local)
		})
		// Size-2: detect in parallel, commit serially (same protocol as
		// SCCSize2).
		p := parallel.Threads(threads)
		locals := make([][][2]graph.V, p)
		parallel.ForChunksDynamic(0, len(live), p, 128, func(lo, hi, w int) {
			buf := locals[w]
			for i := lo; i < hi; i++ {
				v := live[i]
				if atomic.LoadUint32(&label[v]) != graph.NoVertex {
					continue
				}
				for _, u := range g.Out(v) {
					if u <= v || atomic.LoadUint32(&label[u]) != graph.NoVertex || !hasArc(g, u, v) {
						continue
					}
					if pairTrimmable(g, v, u, label) {
						buf = append(buf, [2]graph.V{v, u})
						break
					}
				}
			}
			locals[w] = buf
		})
		var pairCount int
		for _, buf := range locals {
			for _, pair := range buf {
				v, u := pair[0], pair[1]
				if label[v] != graph.NoVertex || label[u] != graph.NoVertex {
					continue
				}
				if !pairTrimmable(g, v, u, label) {
					continue
				}
				label[v] = uint32(v)
				label[u] = uint32(v)
				pairCount += 2
			}
		}
		// Compact the live list.
		next := live[:0]
		for _, v := range live {
			if label[v] == graph.NoVertex {
				next = append(next, v)
			}
		}
		live = next
		if count == 0 && pairCount == 0 {
			return size1, size2, live
		}
		size1 += int(count)
		size2 += pairCount
	}
}

// PendantResult captures everything the iterated degree-1 trim for BiCC/BgCC
// (Fig. 7d) decides on its own: which vertices left the core, which edges are
// bridges (every trimmed pendant edge is one), the two-vertex block each such
// edge forms, and which parents became articulation points.
type PendantResult struct {
	// Removed flags the vertices peeled off the core.
	Removed []bool
	// IsAP flags vertices proven to be articulation points by the trim alone
	// (a parent that still had other edges when its pendant child left).
	IsAP []bool
	// BridgeEdges lists the dense edge ids of the trimmed pendant edges.
	BridgeEdges []int64
	// Blocks lists, per trimmed edge, its two endpoints; each is one BiCC.
	Blocks [][2]graph.V
	// TrimmedCount is the number of removed vertices.
	TrimmedCount int
	// Parent[v] is the neighbor v was attached to when peeled (the next hop
	// toward the surviving core); graph.NoVertex for unremoved vertices.
	// PeelOrder lists the removed vertices in removal order — every removed
	// vertex appears before its Parent if that parent was removed too.
	Parent    []graph.V
	PeelOrder []graph.V
}

// Pendants iteratively peels degree-1 vertices. Peeling is sequential (it is
// a linear-time scan with a worklist) — the parallel win it buys is that the
// expensive constrained-BFS phase afterwards never looks at pendant trees.
func Pendants(g *graph.Undirected) *PendantResult {
	n := g.NumVertices()
	res := &PendantResult{
		Removed: make([]bool, n),
		IsAP:    make([]bool, n),
		Parent:  make([]graph.V, n),
	}
	for i := range res.Parent {
		res.Parent[i] = graph.NoVertex
	}
	eids := g.EdgeIDs()
	deg := make([]int32, n)
	queue := make([]graph.V, 0, 256)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(graph.V(v)))
		if deg[v] == 1 {
			queue = append(queue, graph.V(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if deg[v] != 1 || res.Removed[v] {
			continue
		}
		// Find the single live neighbor.
		var u graph.V
		var eid int64 = -1
		lo, hi := g.SlotRange(v)
		for s := lo; s < hi; s++ {
			w := g.SlotTarget(s)
			if !res.Removed[w] {
				u = w
				eid = eids[s]
				break
			}
		}
		if eid < 0 {
			continue // neighbors all removed already (degree bookkeeping race-free; defensive)
		}
		res.Removed[v] = true
		res.TrimmedCount++
		res.Parent[v] = u
		res.PeelOrder = append(res.PeelOrder, v)
		res.BridgeEdges = append(res.BridgeEdges, eid)
		res.Blocks = append(res.Blocks, [2]graph.V{v, u})
		if deg[u] >= 2 {
			// u keeps another edge after losing v: removing u would separate
			// v's side from that edge — an articulation point.
			res.IsAP[u] = true
		}
		deg[v] = 0
		deg[u]--
		if deg[u] == 1 {
			queue = append(queue, u)
		}
	}
	return res
}
