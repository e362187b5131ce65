package aquila

import (
	"context"
	"errors"

	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/gen"
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

// CC returns the complete connected-components decomposition (computed once,
// then cached). For directed engines this is the WCC decomposition. After
// Apply batches, the decomposition is materialized from the engine's census
// in O(|V|) instead of recomputed by traversal.
func (e *Engine) CC() *CCResult { return e.ccComplete() }

// WCC is CC under its directed-graph name: the weakly connected components.
func (e *Engine) WCC() *CCResult { return e.ccComplete() }

// CCContext is CC with cooperative cancellation: a cold-cache compute polls
// ctx at chunk boundaries and a cancelled call returns ctx.Err() without
// caching the partial result (a retry recomputes from scratch). A warm cache
// answers immediately regardless of ctx. A nil ctx behaves like
// context.Background.
func (e *Engine) CCContext(ctx context.Context) (*CCResult, error) {
	return e.ccCompleteCtx(ctx)
}

// SCCContext is SCC with cooperative cancellation (CCContext semantics).
func (e *Engine) SCCContext(ctx context.Context) (*SCCResult, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	return e.sccCompleteCtx(ctx)
}

// BiCCContext is BiCC with cooperative cancellation (CCContext semantics).
func (e *Engine) BiCCContext(ctx context.Context) (*BiCCResult, error) {
	return e.biccCompleteCtx(ctx)
}

// BgCCContext is BgCC with cooperative cancellation (CCContext semantics).
func (e *Engine) BgCCContext(ctx context.Context) (*BgCCResult, error) {
	return e.bgccCompleteCtx(ctx)
}

// SCC returns the complete strongly-connected-components decomposition.
func (e *Engine) SCC() (*SCCResult, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	return e.sccComplete(), nil
}

// BiCC returns the complete biconnected-components decomposition.
func (e *Engine) BiCC() *BiCCResult { return e.biccComplete() }

// BgCC returns the complete bridgeless-connected-components decomposition.
func (e *Engine) BgCC() *BgCCResult { return e.bgccComplete() }

// CountCC returns the number of connected components. Under incremental
// updates it reads an O(1) counter maintained by Apply.
func (e *Engine) CountCC() int {
	e.mu.Lock()
	if e.dyn != nil {
		cnt := e.dyn.ComponentCount()
		e.mu.Unlock()
		return cnt
	}
	if e.inc != nil {
		cnt := e.inc.ComponentCount()
		e.mu.Unlock()
		return cnt
	}
	res := e.ccCompleteLocked()
	e.mu.Unlock()
	return res.NumComponents
}

// Connected reports whether u and v lie in the same connected component.
// Before any Apply it reads the cached CC decomposition; once incremental
// updates have begun it is answered straight from the union-find in
// near-constant time, without blocking on (or waiting for) writers. In
// dynamic mode (after the first delete op) it reads the spanning forest in
// O(log n) under the engine lock. Both endpoints must be existing vertices.
func (e *Engine) Connected(u, v V) bool {
	e.mu.Lock()
	if e.dyn != nil {
		// The forest is not safe for concurrent mutation, so unlike the
		// union-find branch this query holds e.mu — still O(log n), no
		// traversal, and consistent with any in-flight ApplyUpdates.
		c := e.dyn.Connected(e.mapV(u), e.mapV(v))
		e.mu.Unlock()
		return c
	}
	if e.inc != nil {
		s := e.inc
		e.mu.Unlock()
		// The union-find lives in compute ids; translate the pair on the way
		// in (mapV is the identity for unreordered engines).
		return s.Connected(e.mapV(u), e.mapV(v))
	}
	res := e.ccCompleteLocked()
	e.mu.Unlock()
	return res.Label[u] == res.Label[v]
}

// CCSizeHistogram maps component size to the number of components of that
// size (the paper's Fig. 8 shape). It reads the census: under incremental
// updates that is the base's histogram adjusted by the merges since, with no
// complete decomposition built.
func (e *Engine) CCSizeHistogram() map[int]int {
	e.mu.Lock()
	c, _ := e.censusLockedCtx(nil)
	e.mu.Unlock()
	return c.histogram()
}

// IsConnected answers the small-XCC query "is this graph connected?" (§3).
// With partial computation enabled it first looks for a trimmable pattern —
// any orphan or isolated pair in a larger graph disproves connectivity
// immediately — and otherwise runs a single traversal from a randomly chosen
// vertex. Under incremental updates the component counter answers directly.
func (e *Engine) IsConnected() bool {
	ok, _ := e.isConnectedCtx(nil)
	return ok
}

// IsConnectedContext is IsConnected with cooperative cancellation: the
// traversal polls ctx at chunk boundaries, and a cancelled call returns
// ctx.Err() with no answer (nothing is cached, so a retry recomputes). A nil
// ctx behaves like context.Background.
func (e *Engine) IsConnectedContext(ctx context.Context) (bool, error) {
	return e.isConnectedCtx(ctx)
}

func (e *Engine) isConnectedCtx(ctx context.Context) (bool, error) {
	e.mu.Lock()
	n := e.und.NumVertices()
	if n <= 1 {
		e.mu.Unlock()
		return true, nil
	}
	if e.dyn != nil {
		cnt := e.dyn.ComponentCount()
		e.mu.Unlock()
		return cnt == 1, nil
	}
	if e.inc != nil {
		cnt := e.inc.ComponentCount()
		e.mu.Unlock()
		return cnt == 1, nil
	}
	if e.opt.DisablePartial {
		res, err := e.ccCompleteLockedCtx(ctx)
		e.mu.Unlock()
		if err != nil {
			return false, err
		}
		return res.NumComponents == 1, nil
	}
	g := e.und
	e.mu.Unlock()
	// Trim check: a trimmable pattern in a graph bigger than the pattern is a
	// separate component.
	for v := 0; v < n; v++ {
		if g.Degree(graph.V(v)) == 0 {
			return false, nil
		}
	}
	for v := 0; v < n && n > 2; v++ {
		if g.Degree(graph.V(v)) == 1 {
			u := g.Neighbors(graph.V(v))[0]
			if g.Degree(u) == 1 {
				return false, nil
			}
		}
	}
	// Random pivot (deterministically seeded) + one traversal.
	rng := gen.NewRNG(uint64(n)*0x9e37 + uint64(g.NumEdges()))
	pivot := graph.V(rng.Intn(n))
	rs := e.getReach(n)
	visited := rs.Reach(bfs.UndirectedAdj(g), pivot, nil,
		bfs.Options{Threads: e.opt.Threads, Ctx: ctx}, e.opt.Traversal.mode())
	connected := visited.Count() == n
	e.putReach(rs)
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	return connected, nil
}

// IsStronglyConnected answers "is this graph strongly connected?" with
// partial computation: any size-1-trimmable vertex disproves it; otherwise
// one forward and one backward traversal from a pivot decide it.
func (e *Engine) IsStronglyConnected() (bool, error) {
	if !e.directed {
		return false, ErrNotDirected
	}
	g := e.dirView()
	n := g.NumVertices()
	if n <= 1 {
		return true, nil
	}
	if e.opt.DisablePartial {
		return e.sccComplete().NumComponents == 1, nil
	}
	for v := 0; v < n; v++ {
		if g.InDegree(graph.V(v)) == 0 || g.OutDegree(graph.V(v)) == 0 {
			return false, nil
		}
	}
	pivot := graph.V(0)
	rs := e.getReach(n)
	defer e.putReach(rs)
	fw := rs.Reach(bfs.ForwardAdj(g), pivot, nil,
		bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
	if fw.Count() != n {
		return false, nil
	}
	// The forward count is consumed, so the same scratch (and bitmap) can
	// carry the backward sweep.
	bw := rs.Reach(bfs.BackwardAdj(g), pivot, nil,
		bfs.Options{Threads: e.opt.Threads}, e.opt.Traversal.mode())
	return bw.Count() == n, nil
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

// LargestCC answers the largest-XCC queries (§3): it traverses from the
// max-degree master pivot and, if the found component is at least as big as
// everything else combined, stops there — no other component can beat it.
// Only when the heuristic pivot lands in a minority component does it fall
// back to the complete computation. Under incremental updates the answer
// comes from the census instead of any traversal.
func (e *Engine) LargestCC() *LargestResult {
	res, _ := e.largestCCCtx(nil)
	return res
}

// LargestCCContext is LargestCC with cooperative cancellation: both the
// partial-computation traversal and the complete-decomposition fallback poll
// ctx at chunk boundaries. A cancelled call returns ctx.Err() and caches
// nothing. A nil ctx behaves like context.Background.
func (e *Engine) LargestCCContext(ctx context.Context) (*LargestResult, error) {
	return e.largestCCCtx(ctx)
}

func (e *Engine) largestCCCtx(ctx context.Context) (*LargestResult, error) {
	e.mu.Lock()
	if e.inc != nil || e.dyn != nil {
		c, err := e.censusLockedCtx(ctx)
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return e.largestFromCensus(c), nil
	}
	g := e.und
	e.mu.Unlock()
	n := g.NumVertices()
	if !e.opt.DisablePartial && n > 0 {
		master := g.MaxDegreeVertex()
		rs := e.getReach(n)
		visited := rs.Reach(bfs.UndirectedAdj(g), master, nil,
			bfs.Options{Threads: e.opt.Threads, Ctx: ctx}, e.opt.Traversal.mode())
		if err := ctxErr(ctx); err != nil {
			e.putReach(rs)
			return nil, err
		}
		size := visited.Count()
		if 2*size >= n {
			// The result keeps visited.Get, so the bitmap must survive the
			// scratch's next checkout. The traversal ran in compute ids:
			// membership checks translate in, the pivot translates out.
			rs.DetachVisited()
			e.putReach(rs)
			// Reject out-of-range vertices before touching the permutation
			// or the bitmap: Contains on an unknown vertex is false, not a
			// panic (callers like the HTTP front-end pass ids unchecked).
			contains := func(v V) bool { return int(v) < n && visited.Get(v) }
			if e.perm != nil {
				contains = func(v V) bool { return int(v) < n && visited.Get(e.perm.Perm[v]) }
			}
			return &LargestResult{
				Size: size, Pivot: e.unmapV(master), Partial: true,
				contains: contains,
			}, nil
		}
		e.putReach(rs)
	}
	e.mu.Lock()
	c, err := e.censusLockedCtx(ctx)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return e.largestFromCensus(c), nil
}

// InLargestCC reports whether v is in the largest connected component.
func (e *Engine) InLargestCC(v V) bool {
	e.mu.Lock()
	cached := e.largestCC
	gen := e.cacheGen
	e.mu.Unlock()
	if cached == nil {
		cached = e.LargestCC()
		e.mu.Lock()
		// The fill ran outside the lock; a concurrent Apply may have
		// invalidated the cache in the meantime. Storing the stale fill would
		// erase that invalidation, so it is kept only if no invalidation
		// happened (the answer itself is still consistent: it linearizes at
		// the point the fill read the engine state).
		if e.cacheGen == gen {
			e.largestCC = cached
		}
		e.mu.Unlock()
	}
	return cached.Contains(v)
}

// LargestSCC answers "how big is the largest SCC / is v in it" with partial
// computation: trim, then one FW-BW sweep from the master pivot; if the found
// SCC is at least as large as the remaining unassigned vertices it must be
// the largest.
func (e *Engine) LargestSCC() (*LargestResult, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	g := e.dirView()
	n := g.NumVertices()
	if !e.opt.DisablePartial && n > 0 {
		// One FW-BW from the max-degree pivot. Both halves run through one
		// scratch: the forward bitmap is detached before the backward sweep
		// resets the scratch state.
		master := g.MaxOutDegreeVertex()
		rs := e.getReach(n)
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
			// Both bitmaps escape into the result's contains closure; like
			// LargestCC, the bitmaps are compute-space so membership checks
			// translate in.
			rs.DetachVisited()
			e.putReach(rs)
			return &LargestResult{
				Size: size, Pivot: e.unmapV(master), Partial: true,
				contains: func(v V) bool {
					if int(v) >= n {
						return false
					}
					v = e.mapV(v)
					return fw.Get(v) && bw.Get(v)
				},
			}, nil
		}
		e.putReach(rs)
	}
	res := e.sccComplete()
	lbl := res.LargestLabel
	return &LargestResult{
		Size:  res.LargestSize,
		Pivot: V(lbl),
		contains: func(v V) bool {
			return int(v) < len(res.Label) && res.Label[v] == lbl
		},
	}, nil
}

// ArticulationPoints answers the AP-only query (§3): with partial computation
// it runs the workload-reduced AP detection without block bookkeeping and
// stops checking a vertex once it is proven an AP.
func (e *Engine) ArticulationPoints() []V {
	var isAP []bool
	if e.opt.DisablePartial {
		isAP = e.biccComplete().IsAP
	} else {
		e.mu.Lock()
		e.materializeLocked()
		if e.apOnly == nil {
			raw := e.biccSolve(e.und, nil, true)
			if e.perm != nil {
				raw = remapBiCC(raw, e.perm, e.eidMap, e.opt.Threads)
			}
			e.apOnly = raw
		}
		isAP = e.apOnly.IsAP
		e.mu.Unlock()
	}
	var out []V
	for v, ap := range isAP {
		if ap {
			out = append(out, V(v))
		}
	}
	return out
}

// IsArticulationPoint reports whether v is an articulation point.
func (e *Engine) IsArticulationPoint(v V) bool {
	for _, ap := range e.ArticulationPoints() {
		if ap == v {
			return true
		}
	}
	return false
}

// Bridges answers the bridge-only query (§3), returning each bridge as an
// ordered endpoint pair.
func (e *Engine) Bridges() [][2]V {
	e.mu.Lock()
	e.materializeLocked()
	// The kernel runs on the compute graph; the cached flags and the reported
	// endpoints are both in original ids (flags remapped through eidMap).
	g := e.und
	if e.perm != nil {
		g = e.origUnd
	}
	var isBridge []bool
	if e.opt.DisablePartial {
		if e.bgccRes == nil {
			raw := bgcc.Run(e.und, e.bgccOptions(false))
			if e.perm != nil {
				raw = remapBgCC(raw, e.perm, e.eidMap, e.opt.Threads)
			}
			e.bgccRes = raw
		}
		isBridge = e.bgccRes.IsBridge
	} else {
		if e.brOnly == nil {
			raw := bgcc.Run(e.und, e.bgccOptions(true))
			if e.perm != nil {
				raw = remapBgCC(raw, e.perm, e.eidMap, e.opt.Threads)
			}
			e.brOnly = raw
		}
		isBridge = e.brOnly.IsBridge
	}
	e.mu.Unlock()
	eps := g.EdgeEndpoints()
	var out [][2]V
	for id, b := range isBridge {
		if b {
			out = append(out, eps[id])
		}
	}
	return out
}
