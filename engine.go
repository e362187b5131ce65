package aquila

import (
	"context"
	"fmt"
	"sync"

	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/dyn"
	"aquila/internal/graph"
	"aquila/internal/inc"
	"aquila/internal/scc"
	"aquila/internal/stats"
)

// Engine answers connectivity queries over one graph. It owns the query
// transformation (§3): partial-computation queries use dedicated fast paths,
// and complete decompositions are computed at most once and cached, so
// repeated queries are free.
//
// An Engine also accepts batches of edge insertions via Apply, and mixed
// insert/delete batches via ApplyUpdates. Insertions are absorbed by an
// incremental union-find layer (internal/inc), so connectivity queries
// (Connected, CountCC, CC, IsConnected, LargestCC) never pay for a
// recomputation; queries that walk adjacency (SCC, BiCC, BgCC, coreness,
// betweenness, the partial-traversal fast paths) lazily fold the pending
// edges into fresh CSR graphs first. The first delete operation promotes the
// engine to a fully dynamic spanning forest (internal/dyn) that answers
// connectivity across deletions by replacement-edge search. When the
// accumulated delta crosses Options.RebuildThreshold, the engine falls back
// to the static cc.Run pipeline and reseeds from the fresh decomposition.
//
// # Concurrency contract
//
// An Engine is safe for concurrent use by multiple goroutines, including
// readers querying while another goroutine applies batches: answers are
// always consistent snapshots. Until the first delete op, connectivity is
// additionally monotone (once two vertices are connected, no later query
// disconnects them); dynamic mode trades that for deletions while keeping
// per-query consistency. The contract, precisely:
//
//   - e.mu guards the graph pointers, the incremental state, and every result
//     cache. Cache fills for complete decompositions run *under* e.mu, so a
//     query storm against a cold cache serializes behind one compute — the
//     Server layer (snapshot isolation + singleflight) is the scalable path
//     for that workload.
//   - Published graph pointers are immutable: Apply/materialize build fresh
//     CSRs and swap pointers, so a query that snapshotted e.und under the
//     lock can traverse it lock-free afterwards.
//   - Traversal scratches come from a shared race-clean ScratchPool (its own
//     mutex, never held together with e.mu), so partial fast paths running
//     outside the lock never contend with writers.
//   - Cache fills computed outside e.mu (the partial fast paths) re-validate
//     against cacheGen before storing, so a concurrent Apply's invalidation
//     is never overwritten by a stale fill.
type Engine struct {
	opt      Options
	directed bool // fixed at construction; e.dir is non-nil iff directed

	// dir/und are the compute graphs every kernel runs on. Under
	// Options.Reorder they hold the cache-aware relabeled CSR; perm is then
	// non-nil, origDir/origUnd keep the caller-id graphs, and eidMap
	// translates original dense edge ids to compute edge ids. Results are
	// mapped back to original ids at cache-fill time (see remap.go), so the
	// relabeling never leaks out of the engine.
	mu      sync.Mutex
	dir     *Directed // nil for engines over undirected input
	und     *Undirected
	perm    *graph.Permutation
	origDir *Directed
	origUnd *Undirected
	eidMap  []int64

	// Incremental state (nil until the first Apply). deltaUnd/deltaDir hold
	// inserted edges already unioned into inc but not yet materialized into
	// the CSR graphs; undSet/dirSet index them for duplicate detection.
	inc          *inc.State
	deltaUnd     []graph.Edge
	deltaDir     []graph.Edge
	undSet       map[[2]V]struct{}
	dirSet       map[[2]V]struct{}
	baseEdges    int64 // undirected edge count at the last (re)build
	sinceRebuild int64 // undirected edges inserted/deleted since then

	// Fully dynamic state (nil until the first delete op; see ApplyUpdates).
	// Once dyn is non-nil the incremental layer is retired: the forest is
	// the authoritative undirected edge set (self-loops are dropped, as
	// everywhere), and on directed engines dirSet holds the complete arc set
	// rather than a pending delta. dynDirty marks the CSR graphs stale
	// relative to the forest; materializeLocked rebuilds them lazily.
	dyn      *dyn.Forest
	dynDirty bool

	// reach pools traversal scratches for the partial fast paths
	// (IsConnected, LargestCC, ...), so query storms reuse warm buffers
	// instead of allocating per call. It has its own lock, not e.mu: queries
	// run their traversals outside the engine lock, and serving snapshots
	// share the same pool.
	reach bfs.ScratchPool

	// cacheGen increments (under e.mu) every time Apply or a rebuild
	// invalidates result caches. Fills computed outside e.mu compare it to
	// the value captured before computing and drop the fill on mismatch —
	// otherwise a slow stale fill could overwrite a newer invalidation.
	cacheGen uint64

	// ccRaw is the compute-space CC decomposition; its labels are min-id
	// canonical in compute space, which inc.FromLabels requires. ccRes is the
	// caller-facing (original-id) version — the same object when perm == nil.
	// cen is the compute-space census the point and census queries read.
	// Once inc exists it is never nil: Apply advances it in O(batch +
	// overlay), and ccRaw is materialized from it only on demand. Otherwise
	// it wraps ccRaw and is dropped with it.
	ccRaw        *cc.Result
	cen          *census
	ccRes        *cc.Result
	sccRes       *scc.Result
	biccRes      *bicc.Result
	bgccRes      *bgcc.Result
	apOnly       *bicc.Result
	brOnly       *bgcc.Result
	largestCC    *LargestResult
	condensation *Condensation
	betweenness  []float64
	coreness     []int32
}

// NewEngine returns an Engine over an undirected graph. SCC queries on an
// undirected engine degenerate to CC. With Options.Reorder set, the engine
// builds a relabeled copy once here and computes on it from then on.
func NewEngine(g *Undirected, opt Options) *Engine {
	e := &Engine{opt: opt, und: g}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrder(g, opt.Threads)
		default:
			e.perm = graph.BFSOrder(g, opt.Threads)
		}
		e.origUnd = g
		e.und = e.perm.ApplyUndirected(g, opt.Threads)
		e.eidMap = e.perm.EdgeIDMap(g, e.und, opt.Threads)
	}
	return e
}

// NewDirectedEngine returns an Engine over a directed graph. CC/BiCC/BgCC
// queries run over the undirected view (computed once, per paper §6.1); SCC
// and WCC use the directed graph. With Options.Reorder set, both views are
// relabeled (ranked by total degree across the two CSRs).
func NewDirectedEngine(g *Directed, opt Options) *Engine {
	e := &Engine{opt: opt, directed: true, dir: g, und: graph.UndirectThreads(g, opt.Threads)}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrderDirected(g, opt.Threads)
		default:
			e.perm = graph.BFSOrderDirected(g, opt.Threads)
		}
		e.origDir, e.origUnd = g, e.und
		e.dir = e.perm.ApplyDirected(g, opt.Threads)
		e.und = e.perm.ApplyUndirected(e.origUnd, opt.Threads)
		e.eidMap = e.perm.EdgeIDMap(e.origUnd, e.und, opt.Threads)
	}
	return e
}

// mapV translates an original vertex id into the compute id space.
func (e *Engine) mapV(v V) V {
	if e.perm == nil {
		return v
	}
	return e.perm.Perm[v]
}

// unmapV translates a compute-space vertex id back to the original space.
func (e *Engine) unmapV(v V) V {
	if e.perm == nil {
		return v
	}
	return e.perm.Inv[v]
}

// Undirected returns the current (possibly derived) undirected view of the
// engine's graph in original vertex ids, materializing any pending Apply
// batches first.
func (e *Engine) Undirected() *Undirected {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	if e.perm != nil {
		return e.origUnd
	}
	return e.und
}

// Directed returns the current directed graph in original vertex ids
// (materializing pending Apply batches), or nil for undirected engines.
func (e *Engine) Directed() *Directed {
	if !e.directed {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	if e.perm != nil {
		return e.origDir
	}
	return e.dir
}

// undView snapshots the materialized undirected graph for use outside the
// engine lock. The snapshot is immutable: a later Apply swaps the pointer
// but never mutates a published graph.
func (e *Engine) undView() *Undirected {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	return e.und
}

// dirView snapshots the materialized directed graph (nil when undirected).
func (e *Engine) dirView() *Directed {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	return e.dir
}

func (e *Engine) ccOptions() cc.Options {
	return cc.Options{
		Threads:    e.opt.Threads,
		NoTrim:     e.opt.DisableTrim,
		NoAdaptive: e.opt.DisableAdaptive,
		Mode:       e.opt.Traversal.mode(),
	}
}

// resolveCCPolicy maps Options.CCPolicy onto a concrete matrix cell for g.
// Explicit specs parse to their cell; "auto", "" and unparseable specs run
// the adaptive chooser over cheap O(|V|) statistics of g. Resolution is per
// graph, not per engine: Apply can reshape the graph enough to change the
// auto cell, and serving snapshots resolve against their own pinned graph.
func (e *Engine) resolveCCPolicy(g *Undirected) cc.Policy {
	if s := e.opt.CCPolicy; s != "" && s != "auto" {
		if pol, err := cc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return cc.ChoosePolicy(stats.CheapUndirected(g))
}

// ccSolve runs the complete CC decomposition of g under the engine's resolved
// policy. Every cell produces the same min-id canonical labeling, so callers
// (including inc.FromLabels seeding) are policy-agnostic.
func (e *Engine) ccSolve(g *Undirected, ctx context.Context) *cc.Result {
	opt := e.ccOptions()
	opt.Ctx = ctx
	return cc.Solve(g, e.resolveCCPolicy(g), opt)
}

// CCPolicy reports the matrix cell the engine would use for its current
// graph, in cc.ParsePolicy syntax — with Options.CCPolicy at "auto" this is
// the adaptive chooser's pick.
func (e *Engine) CCPolicy() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	return e.resolveCCPolicy(e.und).String()
}

// resolveSCCPolicy maps Options.SCCPolicy onto a concrete matrix cell for g.
// Explicit specs parse to their cell; "auto", "" and unparseable specs run
// the adaptive chooser over the directed-graph probe. Resolution is per
// graph, not per engine: Apply can reshape the graph enough to change the
// auto cell, and serving snapshots resolve against their own pinned graph.
func (e *Engine) resolveSCCPolicy(g *Directed) scc.Policy {
	if s := e.opt.SCCPolicy; s != "" && s != "auto" {
		if pol, err := scc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return scc.ChoosePolicy(stats.ProbeDirected(g, e.opt.Threads))
}

// sccSolve runs the complete SCC decomposition of g under the engine's
// resolved policy. Every cell produces the same min-id canonical labeling,
// so callers are policy-agnostic.
func (e *Engine) sccSolve(g *Directed, ctx context.Context) *scc.Result {
	opt := e.sccOptions()
	opt.Ctx = ctx
	return scc.Solve(g, e.resolveSCCPolicy(g), opt)
}

// SCCPolicy reports the matrix cell the engine would use for its current
// graph, in scc.ParsePolicy syntax — with Options.SCCPolicy at "auto" this
// is the adaptive chooser's pick. Undirected engines return ErrNotDirected,
// like every other SCC surface.
func (e *Engine) SCCPolicy() (string, error) {
	if !e.directed {
		return "", ErrNotDirected
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	return e.resolveSCCPolicy(e.dir).String(), nil
}

func (e *Engine) sccOptions() scc.Options {
	return scc.Options{
		Threads:    e.opt.Threads,
		NoTrim:     e.opt.DisableTrim,
		NoAdaptive: e.opt.DisableAdaptive,
		Mode:       e.opt.Traversal.mode(),
	}
}

func (e *Engine) biccOptions(apOnly bool) bicc.Options {
	return bicc.Options{
		Threads:    e.opt.Threads,
		NoTrim:     e.opt.DisableTrim,
		NoSPO:      e.opt.DisableSPO,
		NoAdaptive: e.opt.DisableAdaptive,
		Mode:       e.opt.Traversal.mode(),
		APOnly:     apOnly,
	}
}

// resolveBiCCPolicy maps Options.BiCCPolicy onto a concrete matrix cell for
// g. Explicit specs parse to their cell; "auto", "" and unparseable specs
// run the adaptive chooser over the undirected probe. Resolution is per
// graph, not per engine: Apply can reshape the graph enough to change the
// auto cell, and serving snapshots resolve against their own pinned graph.
func (e *Engine) resolveBiCCPolicy(g *Undirected) bicc.Policy {
	if s := e.opt.BiCCPolicy; s != "" && s != "auto" {
		if pol, err := bicc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	return bicc.ChoosePolicy(stats.ProbeUndirected(g))
}

// biccSolve runs the BiCC decomposition (or the AP-only partial query) of g
// under the engine's resolved policy. Every cell produces the same canonical
// AP set and block partition, so callers are policy-agnostic.
func (e *Engine) biccSolve(g *Undirected, ctx context.Context, apOnly bool) *bicc.Result {
	opt := e.biccOptions(apOnly)
	opt.Ctx = ctx
	return bicc.Solve(g, e.resolveBiCCPolicy(g), opt)
}

// BiCCPolicy reports the matrix cell the engine would use for its current
// graph, in bicc.ParsePolicy syntax — with Options.BiCCPolicy at "auto" this
// is the adaptive chooser's pick. BiCC queries run on the undirected view of
// either engine kind, so BiCCPolicy never errors (mirroring CCPolicy).
func (e *Engine) BiCCPolicy() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	return e.resolveBiCCPolicy(e.und).String()
}

func (e *Engine) bgccOptions(bridgeOnly bool) bgcc.Options {
	return bgcc.Options{
		Threads:    e.opt.Threads,
		NoTrim:     e.opt.DisableTrim,
		NoSPO:      e.opt.DisableSPO,
		NoAdaptive: e.opt.DisableAdaptive,
		Mode:       e.opt.Traversal.mode(),
		BridgeOnly: bridgeOnly,
	}
}

// ctxErr reports the context's error; a nil context never errs (it is the
// engine-internal stand-in for context.Background without the interface call).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ccComplete returns the cached complete CC decomposition, computing it once.
func (e *Engine) ccComplete() *cc.Result {
	res, _ := e.ccCompleteCtx(nil)
	return res
}

func (e *Engine) ccCompleteCtx(ctx context.Context) (*cc.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ccCompleteLockedCtx(ctx)
}

// ccRawLockedCtx fills the compute-space CC cache under e.mu. Once incremental
// state exists the result is materialized from the census in O(|V|) — the
// paper's workload-reduction philosophy applied to updates: no traversal
// reruns. Raw labels are min-id canonical in compute space; the incremental
// layer is always seeded from these, never from the remapped caller view.
// A cancelled ctx aborts the kernel; the partial result is discarded, never
// cached, so a later call recomputes from scratch.
func (e *Engine) ccRawLockedCtx(ctx context.Context) (*cc.Result, error) {
	if e.ccRaw == nil {
		if e.dyn != nil {
			// Dynamic mode: the forest census replaces any traversal — an
			// O(|V|) walk over the Euler tours, valid across deletions. A
			// dead ctx aborts before the walk so nothing partial is cached.
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			e.ccRaw = ccResultFromLabels(e.dyn.Labels())
		} else if e.inc != nil {
			e.ccRaw = e.cen.result(e.opt.Threads)
		} else {
			res := e.ccSolve(e.und, ctx)
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			e.ccRaw = res
		}
	}
	return e.ccRaw, nil
}

// ccRawLocked is ccRawLockedCtx without cancellation (legacy callers).
func (e *Engine) ccRawLocked() *cc.Result {
	res, _ := e.ccRawLockedCtx(nil)
	return res
}

// censusLockedCtx returns the engine's census under e.mu. The insert-only
// path keeps it current through every Apply; otherwise it wraps the cached
// decomposition with an empty overlay, filling that first (ccRawLockedCtx
// semantics, cancellation included).
func (e *Engine) censusLockedCtx(ctx context.Context) (*census, error) {
	if e.cen == nil {
		raw, err := e.ccRawLockedCtx(ctx)
		if err != nil {
			return nil, err
		}
		e.cen = newCensus(raw)
	}
	return e.cen, nil
}

// ccCompleteLockedCtx fills the caller-facing CC cache under e.mu, remapping
// the raw decomposition to original ids when the engine is reordered.
func (e *Engine) ccCompleteLockedCtx(ctx context.Context) (*cc.Result, error) {
	if e.ccRes == nil {
		raw, err := e.ccRawLockedCtx(ctx)
		if err != nil {
			return nil, err
		}
		if e.perm != nil {
			e.ccRes = remapCC(raw, e.perm, e.opt.Threads)
		} else {
			e.ccRes = raw
		}
	}
	return e.ccRes, nil
}

// ccCompleteLocked is ccCompleteLockedCtx without cancellation.
func (e *Engine) ccCompleteLocked() *cc.Result {
	res, _ := e.ccCompleteLockedCtx(nil)
	return res
}

func (e *Engine) sccComplete() *scc.Result {
	res, _ := e.sccCompleteCtx(nil)
	return res
}

func (e *Engine) sccCompleteCtx(ctx context.Context) (*scc.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	if e.sccRes == nil {
		raw := e.sccSolve(e.dir, ctx)
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if e.perm != nil {
			raw = remapSCC(raw, e.perm, e.opt.Threads)
		}
		e.sccRes = raw
	}
	return e.sccRes, nil
}

func (e *Engine) biccComplete() *bicc.Result {
	res, _ := e.biccCompleteCtx(nil)
	return res
}

func (e *Engine) biccCompleteCtx(ctx context.Context) (*bicc.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	if e.biccRes == nil {
		raw := e.biccSolve(e.und, ctx, false)
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if e.perm != nil {
			raw = remapBiCC(raw, e.perm, e.eidMap, e.opt.Threads)
		}
		e.biccRes = raw
	}
	return e.biccRes, nil
}

func (e *Engine) bgccComplete() *bgcc.Result {
	res, _ := e.bgccCompleteCtx(nil)
	return res
}

func (e *Engine) bgccCompleteCtx(ctx context.Context) (*bgcc.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.materializeLocked()
	if e.bgccRes == nil {
		opt := e.bgccOptions(false)
		opt.Ctx = ctx
		raw := bgcc.Run(e.und, opt)
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if e.perm != nil {
			raw = remapBgCC(raw, e.perm, e.eidMap, e.opt.Threads)
		}
		e.bgccRes = raw
	}
	return e.bgccRes, nil
}

// ApplyResult summarizes one Apply batch.
type ApplyResult struct {
	// NewEdges is the number of distinct undirected edges the batch added
	// (self-loops and duplicates of existing or pending edges are dropped).
	NewEdges int
	// NewArcs is the number of distinct directed arcs added (always 0 for
	// undirected engines).
	NewArcs int
	// Merged is the number of connected-component merges the batch caused.
	Merged int
	// Components is the connected-component count after the batch.
	Components int
	// Rebuilt reports whether this batch pushed the accumulated delta over
	// the rebuild threshold, triggering a full static recomputation.
	Rebuilt bool
	// DeletedEdges is the number of undirected edges the batch removed
	// (deletes of absent edges are dropped; always 0 on insert-only paths).
	DeletedEdges int
	// DeletedArcs is the number of directed arcs removed (always 0 for
	// undirected engines).
	DeletedArcs int
	// Split is the number of component splits the deletions caused — cuts
	// for which the dynamic forest found no replacement edge.
	Split int
	// Dynamic reports whether the batch ran against the fully dynamic
	// spanning forest (true from the first delete op onward).
	Dynamic bool
}

// Apply inserts a batch of edges into the engine's graph. On a directed
// engine each edge is a directed arc U→V (its endpoints also join in the
// undirected view, mirroring Undirect); on an undirected engine it is an
// undirected edge {U,V}. Self-loops and duplicates are dropped. Endpoints
// must be existing vertices — Apply never grows the vertex set.
//
// Apply patches the incremental connectivity state in parallel and
// invalidates exactly the caches the batch can affect:
//
//   - a batch that adds no new edge or arc preserves every cache;
//   - new undirected edges that merge components advance the census in
//     O(batch + overlay) and invalidate the CC-derived caches (the complete
//     CC labels are then materialized from the census, not recomputed) —
//     edges landing inside one component preserve them;
//   - any new undirected edge invalidates the 2-connectivity and
//     degree-structure caches (BiCC, BgCC, APs, bridges, betweenness,
//     coreness), which are recomputed lazily on next query;
//   - new directed arcs invalidate the SCC and condensation caches, also
//     recomputed lazily.
//
// When the edges inserted since the last full decomposition exceed
// Options.RebuildThreshold times the graph size at that point, Apply
// materializes the graph and reruns the static CC pipeline, reseeding the
// incremental state (a freshly flattened union-find).
func (e *Engine) Apply(batch []Edge) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.und.NumVertices()
	for _, ed := range batch {
		if int(ed.U) >= n || int(ed.V) >= n {
			return nil, fmt.Errorf("aquila: Apply: edge (%d,%d) out of range [0,%d)", ed.U, ed.V, n)
		}
	}
	return e.applyLocked(batch)
}

// applyLocked is Apply's body, shared with the insert-only fast path of
// ApplyUpdates. Once the engine has promoted to the dynamic forest, inserts
// route there too — the union-find no longer exists.
func (e *Engine) applyLocked(batch []Edge) (*ApplyResult, error) {
	if e.dyn != nil {
		ups := make([]Update, len(batch))
		for i, ed := range batch {
			ups[i] = Update{Op: OpInsert, U: ed.U, V: ed.V}
		}
		return e.applyUpdatesDynLocked(ups)
	}
	if e.inc == nil {
		// First update: the static pipeline seeds the incremental state from
		// the raw compute-space labels (min-id canonical there), and the
		// census takes the same decomposition as its base.
		cen, _ := e.censusLockedCtx(nil)
		res := cen.base.res
		e.inc = inc.FromLabels(res.Label, res.NumComponents)
		e.undSet = make(map[[2]V]struct{})
		e.dirSet = make(map[[2]V]struct{})
		e.baseEdges = e.und.NumEdges()
		e.sinceRebuild = 0
	}

	// Split the batch into genuinely new undirected edges and directed arcs,
	// checking both the materialized graphs and the pending delta. Under a
	// reorder the delta (like everything the kernels see) lives in compute
	// ids, so endpoints are translated up front.
	var newUnd, newDir []graph.Edge
	for _, ed := range batch {
		if ed.U == ed.V {
			continue
		}
		eu, ev := e.mapV(ed.U), e.mapV(ed.V)
		if e.directed {
			key := [2]V{eu, ev}
			if _, dup := e.dirSet[key]; !dup && !e.dir.HasArc(eu, ev) {
				newDir = append(newDir, graph.Edge{U: eu, V: ev})
				e.dirSet[key] = struct{}{}
			}
		}
		u, v := eu, ev
		if u > v {
			u, v = v, u
		}
		key := [2]V{u, v}
		if _, dup := e.undSet[key]; !dup && !e.und.HasEdge(u, v) {
			newUnd = append(newUnd, graph.Edge{U: u, V: v})
			e.undSet[key] = struct{}{}
		}
	}

	res := &ApplyResult{NewEdges: len(newUnd), NewArcs: len(newDir)}
	if len(newUnd) == 0 && len(newDir) == 0 {
		res.Components = e.inc.ComponentCount()
		return res, nil // fully duplicate batch: every cache stays valid
	}

	res.Merged = e.inc.Apply(newUnd, e.opt.Threads)
	e.deltaUnd = append(e.deltaUnd, newUnd...)
	e.deltaDir = append(e.deltaDir, newDir...)
	e.sinceRebuild += int64(len(newUnd))

	e.cacheGen++
	if len(newUnd) > 0 {
		if res.Merged > 0 {
			e.cen = e.cen.advance(e.inc, newUnd, res.Merged, e.opt.Threads)
			e.ccRaw, e.ccRes, e.largestCC = nil, nil, nil
		}
		e.biccRes, e.bgccRes, e.apOnly, e.brOnly = nil, nil, nil, nil
		e.betweenness, e.coreness = nil, nil
	}
	if len(newDir) > 0 {
		e.sccRes, e.condensation = nil, nil
	}

	if th := e.opt.rebuildThreshold(); th > 0 && float64(e.sinceRebuild) >= th*float64(e.baseEdges+1) {
		e.rebuildLocked()
		res.Rebuilt = true
	}
	res.Components = e.inc.ComponentCount()
	return res, nil
}

// graphSet bundles the graph pointers one materialization step transforms:
// the compute CSRs, the caller-id CSRs (reordered engines only) and the
// edge-id translation. Both the engine (under e.mu) and serving snapshots
// (outside any lock) materialize through the same function.
type graphSet struct {
	dir     *Directed
	und     *Undirected
	origDir *Directed
	origUnd *Undirected
	eidMap  []int64
}

// materializeGraphs folds delta edges into fresh CSR graphs and returns the
// updated set. It reads the input graphs but never mutates them, so a caller
// holding only immutable snapshots (a serving Snapshot) can materialize
// without any lock.
func materializeGraphs(directed bool, perm *graph.Permutation, gs graphSet, deltaUnd, deltaDir []graph.Edge, th int) graphSet {
	if len(deltaUnd) == 0 && len(deltaDir) == 0 {
		return gs
	}
	if directed {
		edges := make([]graph.Edge, 0, int(gs.dir.NumArcs())+len(deltaDir))
		for u := 0; u < gs.dir.NumVertices(); u++ {
			for _, v := range gs.dir.Out(V(u)) {
				edges = append(edges, graph.Edge{U: V(u), V: v})
			}
		}
		edges = append(edges, deltaDir...)
		gs.dir = graph.BuildDirectedThreads(gs.dir.NumVertices(), edges, th)
		gs.und = graph.UndirectThreads(gs.dir, th)
	} else {
		eps := gs.und.EdgeEndpoints()
		edges := make([]graph.Edge, 0, len(eps)+len(deltaUnd))
		for _, ep := range eps {
			edges = append(edges, graph.Edge{U: ep[0], V: ep[1]})
		}
		edges = append(edges, deltaUnd...)
		gs.und = graph.BuildUndirectedThreads(gs.und.NumVertices(), edges, th)
	}
	if perm != nil {
		// The compute graphs absorbed the delta in compute ids; re-derive the
		// caller-id graphs by applying the inverse relabeling, and refresh the
		// edge-id translation (dense ids shift when edges are inserted).
		inv := &graph.Permutation{Perm: perm.Inv, Inv: perm.Perm}
		if directed {
			gs.origDir = inv.ApplyDirected(gs.dir, th)
			gs.origUnd = graph.UndirectThreads(gs.origDir, th)
		} else {
			gs.origUnd = inv.ApplyUndirected(gs.und, th)
		}
		gs.eidMap = perm.EdgeIDMap(gs.origUnd, gs.und, th)
	}
	return gs
}

// materializeLocked folds the pending delta edges into fresh CSR graphs.
// Queries that walk adjacency call this lazily; pure union-find queries
// never pay for it. Published graph pointers are never mutated in place, so
// snapshots held by concurrent readers stay valid.
func (e *Engine) materializeLocked() {
	if e.dyn != nil {
		e.materializeDynLocked()
		return
	}
	if len(e.deltaUnd) == 0 && len(e.deltaDir) == 0 {
		return
	}
	gs := materializeGraphs(e.directed, e.perm, graphSet{
		dir: e.dir, und: e.und, origDir: e.origDir, origUnd: e.origUnd, eidMap: e.eidMap,
	}, e.deltaUnd, e.deltaDir, e.opt.Threads)
	e.dir, e.und, e.origDir, e.origUnd, e.eidMap = gs.dir, gs.und, gs.origDir, gs.origUnd, gs.eidMap
	e.deltaUnd, e.deltaDir = nil, nil
	e.undSet, e.dirSet = make(map[[2]V]struct{}), make(map[[2]V]struct{})
}

// getReach pops a traversal scratch off the shared pool (or makes one sized
// for n vertices). Pair with putReach; a bitmap that must outlive the checkout
// is taken with DetachVisited before the scratch goes back.
func (e *Engine) getReach(n int) *bfs.ReachScratch {
	return e.reach.Get(n, e.opt.Threads)
}

// putReach returns a scratch to the pool for the next query.
func (e *Engine) putReach(s *bfs.ReachScratch) {
	e.reach.Put(s)
}

// rebuildLocked is the fall-back-to-static path: materialize the delta, run
// the full cc pipeline, and reseed the incremental state and the census from
// the fresh decomposition. In dynamic mode the forest stays authoritative for
// future updates; the rebuild re-canonicalizes the cached decomposition
// through the static pipeline (re-resolving the CC policy chooser against the
// reshaped graph) and resets the rebuild budget.
func (e *Engine) rebuildLocked() {
	e.materializeLocked()
	e.cacheGen++
	e.ccRaw = e.ccSolve(e.und, nil)
	e.cen = newCensus(e.ccRaw)
	e.ccRes, e.largestCC = nil, nil
	if e.dyn == nil {
		e.inc = inc.FromLabels(e.ccRaw.Label, e.ccRaw.NumComponents)
	}
	e.baseEdges = e.und.NumEdges()
	e.sinceRebuild = 0
}
