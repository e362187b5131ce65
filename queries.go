package aquila

import (
	"context"
	"errors"
	"slices"

	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/scc"
)

// CCResult is a complete connected-components decomposition.
type CCResult = cc.Result

// SCCResult is a complete strongly-connected-components decomposition.
type SCCResult = scc.Result

// BiCCResult is a complete biconnected-components decomposition.
type BiCCResult = bicc.Result

// BgCCResult is a complete bridgeless-connected-components decomposition.
type BgCCResult = bgcc.Result

// ErrNotDirected is returned by SCC queries on engines built over undirected
// graphs.
var ErrNotDirected = errors.New("aquila: SCC queries need a directed graph (use NewDirectedEngine)")

// CC returns the complete connected-components decomposition, computed once
// per epoch (see Snapshot). For directed engines this is the WCC
// decomposition. After Apply batches, the decomposition is materialized from
// the engine's census in O(|V|) instead of recomputed by traversal.
func (e *Engine) CC() *CCResult {
	res, _ := e.CCContext(nil)
	return res
}

// WCC is CC under its directed-graph name: the weakly connected components.
func (e *Engine) WCC() *CCResult { return e.CC() }

// CCContext is CC with cooperative cancellation: a cold compute polls ctx at
// chunk boundaries and a cancelled call returns ctx.Err() without caching
// the partial result (a retry recomputes from scratch). A warm result
// answers immediately regardless of ctx. A nil ctx behaves like
// context.Background.
func (e *Engine) CCContext(ctx context.Context) (*CCResult, error) {
	return e.current(false).CC(ctx)
}

// SCCContext is SCC with cooperative cancellation (CCContext semantics).
func (e *Engine) SCCContext(ctx context.Context) (*SCCResult, error) {
	return e.current(true).SCC(ctx)
}

// BiCCContext is BiCC with cooperative cancellation (CCContext semantics).
func (e *Engine) BiCCContext(ctx context.Context) (*BiCCResult, error) {
	return e.current(true).BiCC(ctx)
}

// BgCCContext is BgCC with cooperative cancellation (CCContext semantics).
func (e *Engine) BgCCContext(ctx context.Context) (*BgCCResult, error) {
	return e.current(true).BgCC(ctx)
}

// SCC returns the complete strongly-connected-components decomposition.
func (e *Engine) SCC() (*SCCResult, error) { return e.SCCContext(nil) }

// BiCC returns the complete biconnected-components decomposition.
func (e *Engine) BiCC() *BiCCResult {
	res, _ := e.BiCCContext(nil)
	return res
}

// BgCC returns the complete bridgeless-connected-components decomposition.
func (e *Engine) BgCC() *BgCCResult {
	res, _ := e.BgCCContext(nil)
	return res
}

// liveCount returns the component count the incremental or dynamic state keeps,
// or, before the first update, the current epoch to ask instead.
func (e *Engine) liveCount() (int, *Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.dyn != nil:
		return e.dyn.ComponentCount(), nil
	case e.inc != nil:
		return e.inc.ComponentCount(), nil
	}
	return 0, e.epochLocked()
}

// CountCC returns the number of connected components. Under incremental
// updates it reads an O(1) counter maintained by Apply.
func (e *Engine) CountCC() int {
	cnt, sn := e.liveCount()
	if sn != nil {
		cnt, _ = sn.CountCC(nil)
	}
	return cnt
}

// Connected reports whether u and v lie in the same connected component.
// Before any Apply it reads the epoch's census; once incremental updates
// have begun it is answered straight from the union-find in near-constant
// time, without blocking on (or waiting for) writers. In dynamic mode (after
// the first delete op) it reads the spanning forest in O(log n) under the
// engine lock. Both endpoints must be existing vertices.
func (e *Engine) Connected(u, v V) bool {
	e.mu.Lock()
	if e.dyn != nil {
		// The forest is not safe for concurrent mutation, so unlike the
		// union-find branch this query holds e.mu — still O(log n), no
		// traversal, and consistent with any in-flight ApplyUpdates.
		c := e.dyn.Connected(u, v)
		e.mu.Unlock()
		return c
	}
	s := e.inc
	var sn *Snapshot
	if s == nil {
		sn = e.epochLocked()
	}
	e.mu.Unlock()
	if sn != nil {
		c, _ := sn.Connected(nil, u, v)
		return c
	}
	return s.Connected(u, v)
}

// CCSizeHistogram maps component size to the number of components of that
// size (the paper's Fig. 8 shape). It reads the census: under incremental
// updates that is the base's histogram adjusted by the merges since, with no
// complete decomposition built.
func (e *Engine) CCSizeHistogram() map[int]int {
	h, _ := e.current(false).CCSizeHistogram(nil)
	return h
}

// IsConnected answers the small-XCC query "is this graph connected?" (§3).
// Under incremental or dynamic updates the component counter answers
// directly; before them the current epoch runs the §3 plan (see
// Snapshot.IsConnected): a census computed already, or the trim check and
// at most one traversal.
func (e *Engine) IsConnected() bool {
	ok, _ := e.IsConnectedContext(nil)
	return ok
}

// IsConnectedContext is IsConnected with cooperative cancellation: the
// traversal polls ctx at chunk boundaries, and a cancelled call returns
// ctx.Err() with no answer (nothing is cached, so a retry recomputes). A nil
// ctx behaves like context.Background.
func (e *Engine) IsConnectedContext(ctx context.Context) (bool, error) {
	cnt, sn := e.liveCount()
	if sn != nil {
		return sn.IsConnected(ctx)
	}
	return e.n <= 1 || cnt == 1, nil
}

// IsStronglyConnected answers "is this graph strongly connected?" with
// partial computation: any size-1-trimmable vertex disproves it; otherwise
// one forward and one backward traversal from a pivot decide it. An SCC
// decomposition the epoch holds answers instead, and the answer stays with
// the epoch's successors until an arc changes.
func (e *Engine) IsStronglyConnected() (bool, error) {
	if !e.directed {
		return false, ErrNotDirected
	}
	sn := e.current(true)
	if res, ok := sn.sccRes.Peek(); ok && sn.NumVertices() > 1 {
		return res.NumComponents == 1, nil
	}
	return getCell(sn, nil, &sn.strong, func(context.Context) (bool, error) {
		g, _ := sn.directed(nil)
		n := g.NumVertices()
		if n <= 1 {
			return true, nil
		}
		if e.opt.DisablePartial {
			res, _ := sn.SCC(nil)
			return res.NumComponents == 1, nil
		}
		inOff, _ := g.InCSR()
		for v := 0; v < n; v++ {
			if inOff[v+1] == inOff[v] || g.OutDegree(graph.V(v)) == 0 {
				return false, nil
			}
		}
		pivot := graph.V(0)
		rs := e.reach.Get(n, e.opt.Threads)
		defer e.reach.Put(rs)
		fw := rs.Reach(bfs.ForwardAdj(g), pivot, nil,
			bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
		if fw.Count() != n {
			return false, nil
		}
		// The forward count is consumed, so the same scratch (and bitmap)
		// can carry the backward sweep.
		bw := rs.Reach(bfs.BackwardAdj(g), pivot, nil,
			bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
		return bw.Count() == n, nil
	})
}

// LargestResult describes the largest connected component.
type LargestResult struct {
	// Size is the component's vertex count.
	Size int
	// Pivot is a member vertex (the master pivot that found it).
	Pivot V
	// Partial reports whether the answer came from partial computation
	// (one traversal + size comparison) rather than a full decomposition.
	Partial bool

	contains func(V) bool
}

// Contains reports whether v belongs to the largest component.
func (l *LargestResult) Contains(v V) bool { return l.contains(v) }

// LargestCC answers the largest-XCC queries (§3) on the current epoch (see
// Snapshot.LargestCC): from the census once updates have begun or a census
// exists, otherwise by one traversal from the max-degree master pivot that
// stops if the component it finds is at least as big as everything else
// combined, falling back to the complete computation only when it is not.
// A census solved after the epoch's traversal answer takes over here, while
// a served snapshot keeps its first answer for the epoch.
func (e *Engine) LargestCC() *LargestResult {
	res, _ := e.LargestCCContext(nil)
	return res
}

// LargestCCContext is LargestCC with cooperative cancellation: both the
// partial-computation traversal and the complete-decomposition fallback poll
// ctx at chunk boundaries. A cancelled call returns ctx.Err() and caches
// nothing. A nil ctx behaves like context.Background.
func (e *Engine) LargestCCContext(ctx context.Context) (*LargestResult, error) {
	sn := e.current(false)
	if l, ok := sn.largest.Peek(); ok && l.Partial {
		if c, ok := sn.cen.Peek(); ok {
			return c.largest(), nil
		}
	}
	return sn.LargestCC(ctx)
}

// InLargestCC reports whether v is in the largest connected component.
func (e *Engine) InLargestCC(v V) bool { return e.LargestCC().Contains(v) }

// LargestSCC answers "how big is the largest SCC / is v in it" with partial
// computation: trim, then one FW-BW sweep from the master pivot; if the found
// SCC is at least as large as the remaining unassigned vertices it must be
// the largest. An SCC decomposition the epoch holds answers instead (as the
// census does for LargestCC), and a partial answer stays with the epoch's
// successors until an arc changes.
func (e *Engine) LargestSCC() (*LargestResult, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	sn := e.current(true)
	if res, ok := sn.sccRes.Peek(); ok {
		return largestFromSCC(res), nil
	}
	return getCell(sn, nil, &sn.largestSCC, func(context.Context) (*LargestResult, error) {
		g, _ := sn.directed(nil)
		n := g.NumVertices()
		if !e.opt.DisablePartial && n > 0 {
			// One FW-BW from the max-degree pivot. Both halves run through
			// one scratch: the forward bitmap is detached before the
			// backward sweep resets the scratch state.
			master := g.MaxOutDegreeVertex()
			rs := e.reach.Get(n, e.opt.Threads)
			fw := rs.Reach(bfs.ForwardAdj(g), master, nil,
				bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
			rs.DetachVisited()
			bw := rs.Reach(bfs.BackwardAdj(g), master, nil,
				bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
			size := 0
			for v := 0; v < n; v++ {
				if fw.Get(V(v)) && bw.Get(V(v)) {
					size++
				}
			}
			if 2*size >= n {
				// Both bitmaps escape into the result's contains closure,
				// which rejects out-of-range vertices like LargestCC's.
				rs.DetachVisited()
				e.reach.Put(rs)
				return &LargestResult{
					Size: size, Pivot: master, Partial: true,
					contains: func(v V) bool { return int(v) < n && fw.Get(v) && bw.Get(v) },
				}, nil
			}
			e.reach.Put(rs)
		}
		res, _ := sn.SCC(nil)
		return largestFromSCC(res), nil
	})
}

// largestFromSCC answers LargestSCC from a complete decomposition.
func largestFromSCC(res *SCCResult) *LargestResult {
	lbl := res.LargestLabel
	return &LargestResult{
		Size:  res.LargestSize,
		Pivot: V(lbl),
		contains: func(v V) bool {
			return int(v) < len(res.Label) && res.Label[v] == lbl
		},
	}
}

// ArticulationPoints answers the AP-only query (§3) on the current epoch
// (see Snapshot.ArticulationPoints): with partial computation it runs the
// workload-reduced AP detection without block bookkeeping and stops checking
// a vertex once it is proven an AP.
func (e *Engine) ArticulationPoints() []V {
	a, _ := e.current(true).ArticulationPoints(nil)
	return a
}

// apList lists the flagged vertices in ascending order (nil when none is).
func apList(isAP []bool) []V {
	var out []V
	for v, ap := range isAP {
		if ap {
			out = append(out, V(v))
		}
	}
	return out
}

// IsArticulationPoint reports whether v is an articulation point: a binary
// search of the epoch's cached list, allocation-free once it is warm.
func (e *Engine) IsArticulationPoint(v V) bool {
	a, _ := e.current(true).apList(nil)
	_, found := slices.BinarySearch(a, v)
	return found
}

// Bridges answers the bridge-only query (§3) on the current epoch (see
// Snapshot.Bridges), returning each bridge as an ordered endpoint pair.
func (e *Engine) Bridges() [][2]V {
	b, _ := e.current(true).Bridges(nil)
	return b
}

// bridgeList returns the endpoints of the flagged edges of g, in dense
// edge-id order, with the lower endpoint first. Ids are dense in (lower
// endpoint, slot) order, so one walk over the upper slots resolves them
// without the edge-id index or an endpoint table.
func bridgeList(g *Undirected, isBridge []bool) [][2]V {
	var out [][2]V
	id := 0
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(V(u)) {
			if V(u) < v {
				if isBridge[id] {
					out = append(out, [2]V{V(u), v})
				}
				id++
			}
		}
	}
	return out
}
