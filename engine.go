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
	"aquila/internal/serve"
	"aquila/internal/stats"
)

// Engine answers connectivity queries over one graph. It owns the query
// transformation (§3): partial-computation queries use dedicated fast paths,
// and complete decompositions are computed at most once per epoch and
// cached, so repeated queries are free.
//
// An Engine also accepts batches of edge insertions via Apply, and mixed
// insert/delete batches via ApplyUpdates. Insertions are absorbed by an
// incremental union-find layer (internal/inc), so connectivity queries
// (Connected, CountCC, CC, IsConnected, LargestCC) never pay for a
// recomputation; queries that walk adjacency (SCC, BiCC, BgCC, coreness,
// betweenness, the partial-traversal fast paths) lazily merge the signed
// delta of pending changes into fresh CSR graphs first. The first delete
// operation promotes the engine to a fully dynamic spanning forest
// (internal/dyn) that answers connectivity across deletions by
// replacement-edge search. When the accumulated delta crosses
// Options.RebuildThreshold, the engine falls back to the static cc.Run
// pipeline and reseeds from the fresh decomposition.
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
//   - e.mu guards the mutable state: the base graph pointers, the signed
//     delta, the incremental or dynamic state, the census and the pointer to
//     the current epoch. It is held to read or advance them, never for a
//     decomposition, so Apply never waits behind a cold query.
//   - Every query except the live point reads — Connected, CountCC, and
//     IsConnected once updates have begun — runs on the current epoch (see
//     Snapshot), outside e.mu. An epoch is immutable and caches each result
//     in a singleflight cell, so a query storm against a cold result
//     coalesces into one compute, and a query racing an Apply answers as of
//     the epoch it started on. The first query after a write captures the
//     next epoch, which inherits every result the write could not change.
//   - Published graph pointers are immutable: a re-base builds fresh CSRs
//     and swaps pointers, so an epoch that captured a base graph under the
//     lock can traverse it lock-free afterwards. The delta logs are
//     append-only between re-bases, so a prefix an epoch captured never
//     changes under it.
//   - Traversal scratches come from a shared race-clean ScratchPool (its own
//     mutex, never held together with e.mu), so traversals never contend
//     with writers.
type Engine struct {
	opt      Options
	directed bool // fixed at construction; e.dir is non-nil iff directed
	n        int  // the vertex count: Apply never grows the vertex set

	// dir (directed engines) or und (undirected ones) is the base graph
	// every kernel runs on. A directed engine holds its out-CSR alone: the
	// in-CSR and the undirected view are derived from it, built by the first
	// query that walks them (see undirectedOf), while connectivity censuses
	// run a union-find over dir's out-arcs. Under Options.Reorder
	// the base is the cache-aware relabeled CSR; perm is then non-nil and
	// origDir/origUnd keep the caller-id graph. Results are mapped back to
	// original ids at cache-fill time (see remap.go), so the relabeling
	// never leaks out of the engine. memo holds what is derived from the
	// base on first use and is replaced with it.
	mu      sync.Mutex
	dir     *Directed   // nil for engines over undirected input
	und     *Undirected // nil for directed engines
	perm    *graph.Permutation
	origDir *Directed
	origUnd *Undirected
	memo    *baseMemo

	// undEdges is the base's undirected edge count, or -1 until a directed
	// engine first needs it (see undirectedEdgesLocked). A re-base adds the
	// edge log's net change, so the count never needs a pass over the graph
	// again.
	undEdges int64

	// The signed delta. The graphs above are the base: the CSRs as of the
	// last re-base. arcLog (directed engines) and edgeLog record, in compute
	// ids and in order, every arc and undirected edge (normalized U < V)
	// inserted or deleted since then; only effective changes are logged, so
	// each key's entries alternate. live indexes the logged keys of the
	// primary relation (arcs on directed engines, edges otherwise) with
	// their current presence. Both update modes keep this one
	// representation; rebaseLocked merges both logs into the base.
	arcLog  []graph.Change
	edgeLog []graph.Change
	live    map[uint64]bool

	// Incremental state (nil until the first Apply). baseEdges is the
	// undirected edge count at the last (re)build, or -1 while a directed
	// engine has not counted it: baseArcs then bounds it (see pastThreshold)
	// and foldedNet is the net edge change re-bases have merged since.
	inc          *inc.State
	baseEdges    int64
	baseArcs     int64
	foldedNet    int64
	sinceRebuild int64 // undirected edges inserted/deleted since the (re)build

	// Fully dynamic state (nil until the first delete op; see ApplyUpdates).
	// Once dyn is non-nil the incremental layer is retired and the forest
	// answers connectivity; the base plus the delta stay the edge set of
	// record (self-loops are dropped, as everywhere).
	dyn *dyn.Forest

	// reach pools traversal scratches for the partial fast paths
	// (IsConnected, LargestCC, ...), so query storms reuse warm buffers
	// instead of allocating per call; a bitmap that must outlive its
	// checkout is taken with DetachVisited before the scratch goes back. It
	// has its own lock, not e.mu: traversals run outside the engine lock, on
	// every epoch.
	reach bfs.ScratchPool

	// cen is the compute-space census once updates have begun; its base
	// labels are min-id canonical in compute space, which inc.FromLabels
	// requires. Apply advances it in O(batch + overlay). In dynamic mode a
	// batch that merges or splits components clears it, and the next capture
	// re-derives it from the forest.
	cen *census

	// snap is the engine's own handle on its current epoch, nil until first
	// needed; stale reports a write or a re-base since its capture, so the
	// next query captures a successor (see epochLocked), and after a re-base
	// snap holds only what that successor inherits (see epoch.husk). arcGen
	// and edgeGen count the arc and undirected-edge changes ever logged: a
	// successor inherits its predecessor's results whose input counter, or
	// census, is unchanged. stats, set by NewServer, collects the epochs'
	// singleflight telemetry.
	snap            *Snapshot
	stale           bool
	arcGen, edgeGen uint64
	stats           *serve.CellStats
}

// NewEngine returns an Engine over an undirected graph. SCC queries on an
// undirected engine degenerate to CC. With Options.Reorder set, the engine
// builds a relabeled copy once here and computes on it from then on.
func NewEngine(g *Undirected, opt Options) *Engine {
	e := &Engine{opt: opt, n: g.NumVertices(), und: g, memo: new(baseMemo), undEdges: g.NumEdges()}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrder(g, opt.Threads)
		default:
			e.perm = graph.BFSOrder(g, opt.Threads)
		}
		e.origUnd = g
		e.und = e.perm.ApplyUndirected(g, opt.Threads)
	}
	return e
}

// NewDirectedEngine returns an Engine over a directed graph. CC (that is,
// WCC) is CC over the undirected view (paper §6.1), but its census is a
// union-find over the out-arcs alone: every undirected edge is an arc in its
// source's out-row. SCC also walks the in-CSR, and BiCC, BgCC and the
// traversal fast paths walk the undirected view; each is built by the first
// query that needs it and kept from then on, so an engine that answers only
// connectivity never transposes the graph. With Options.Reorder set, the
// graph is relabeled (ranked by total degree across the two CSRs), and so is
// every view derived from it.
func NewDirectedEngine(g *Directed, opt Options) *Engine {
	e := &Engine{opt: opt, n: g.NumVertices(), directed: true, dir: g, memo: new(baseMemo), undEdges: -1}
	if opt.Reorder != ReorderNone {
		switch opt.Reorder {
		case ReorderDegree:
			e.perm = graph.DegreeOrderDirected(g, opt.Threads)
		default:
			e.perm = graph.BFSOrderDirected(g, opt.Threads)
		}
		e.origDir = g
		e.dir = e.perm.ApplyDirected(g, opt.Threads)
	}
	return e
}

// NumVertices returns the vertex count, fixed for the engine's life: Apply
// and ApplyUpdates never grow the vertex set.
func (e *Engine) NumVertices() int { return e.n }

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
// batches first. On a directed engine the first call builds the view.
func (e *Engine) Undirected() *Undirected {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	v := e.undirectedOf(e.base())
	if e.perm != nil {
		return v.origUnd
	}
	return v.und
}

// Directed returns the current directed graph in original vertex ids
// (materializing pending Apply batches), or nil for undirected engines.
func (e *Engine) Directed() *Directed {
	if !e.directed {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	if e.perm != nil {
		return e.origDir
	}
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

// resolveCCPolicy maps Options.CCPolicy onto a concrete matrix cell for base
// graph b. Explicit specs parse to their cell; "auto", "" and unparseable
// specs run the adaptive chooser: over an undirected base's degree
// statistics, or, for a directed base, over its vertex count alone
// (cc.ChooseDirectedPolicy), so resolving reads no adjacency. Resolution is
// per graph, not per engine: Apply can reshape the graph enough to change
// the auto cell, and re-bases resolve afresh.
func (e *Engine) resolveCCPolicy(b graphSet) cc.Policy {
	if s := e.opt.CCPolicy; s != "" && s != "auto" {
		if pol, err := cc.ParsePolicy(s); err == nil {
			return pol
		}
	}
	if b.dir != nil {
		return cc.ChooseDirectedPolicy(b.dir.NumVertices())
	}
	return cc.ChoosePolicy(stats.CheapUndirected(b.und))
}

// ccSolve runs the complete CC decomposition of base graph b under the
// engine's resolved policy. On a directed base a union-find cell runs on
// the out-arcs alone; any other cell runs on the undirected view
// (cc.SolveDirected). Every cell produces the same min-id canonical
// labeling, so callers (including inc.FromLabels seeding) are
// policy-agnostic.
func (e *Engine) ccSolve(b graphSet, ctx context.Context) *cc.Result {
	opt := e.ccOptions()
	opt.Ctx = ctx
	pol := e.resolveCCPolicy(b)
	if b.dir != nil {
		return cc.SolveDirected(b.dir, pol, opt)
	}
	return cc.Solve(b.und, pol, opt)
}

// arcCensus reports whether base b's connectivity census is a union-find
// over its out-arcs: a directed base under a union-find cell. There the
// census costs less than the undirected view a §3 traversal would build
// first, so IsConnected and LargestCC answer from it.
func (e *Engine) arcCensus(b graphSet) bool {
	return b.dir != nil && e.resolveCCPolicy(b).UnionFind()
}

// CCPolicy reports the matrix cell the engine would use for its current
// graph, in cc.ParsePolicy syntax — with Options.CCPolicy at "auto" this is
// the adaptive chooser's pick.
func (e *Engine) CCPolicy() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	return e.resolveCCPolicy(e.base()).String()
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
	e.rebaseLocked()
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
	e.rebaseLocked()
	return e.resolveBiCCPolicy(e.undirectedOf(e.base()).und).String()
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
// Apply patches the incremental connectivity state in parallel. The epoch
// the next query captures inherits every result the batch cannot affect:
//
//   - a batch that adds no new edge or arc keeps every result;
//   - new undirected edges that merge components advance the census in
//     O(batch + overlay), and the CC-derived results (complete CC, largest
//     component, histogram) are then materialized from it, not recomputed —
//     edges landing inside one component keep them;
//   - any new undirected edge drops the 2-connectivity and degree-structure
//     results (BiCC, BgCC, APs, bridges, betweenness, coreness), which are
//     recomputed lazily on next query;
//   - new directed arcs drop the SCC and condensation results, also
//     recomputed lazily.
//
// When the edges inserted since the last full decomposition exceed
// Options.RebuildThreshold times the graph size at that point, Apply
// re-bases the graph and reruns the static CC pipeline, reseeding the
// incremental state (a freshly flattened union-find).
func (e *Engine) Apply(batch []Edge) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.n
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
		// First update: the incremental state and the census seed from the
		// current epoch's census, joining its solve if one is in flight.
		e.cen, _ = e.epochLocked().censusGet(nil)
		res := e.cen.base.res
		e.inc = inc.FromLabels(res.Label, res.NumComponents)
		e.resetBudget()
	}
	e.stale = true

	// Log the batch's genuinely new arcs and undirected edges, checking the
	// delta's index first and the base graphs after it. Under a reorder the
	// delta (like everything the kernels see) lives in compute ids, so
	// endpoints are translated up front.
	var newUnd []graph.Edge
	newArcs := 0
	for _, ed := range batch {
		if ed.U == ed.V {
			continue
		}
		u, v := e.mapV(ed.U), e.mapV(ed.V)
		if e.directed {
			if e.hasArc(u, v) {
				continue // the arc exists, so its undirected edge does too
			}
			fresh := !e.hasArc(v, u)
			e.logArc(u, v, false)
			newArcs++
			if !fresh {
				continue
			}
		} else if e.hasEdge(u, v) {
			continue
		}
		e.logEdge(u, v, false)
		newUnd = append(newUnd, graph.Edge{U: min(u, v), V: max(u, v)})
	}

	res := &ApplyResult{NewEdges: len(newUnd), NewArcs: newArcs}
	if len(newUnd) == 0 && newArcs == 0 {
		res.Components = e.inc.ComponentCount()
		return res, nil // fully duplicate batch
	}

	res.Merged = e.inc.Apply(newUnd, e.opt.Threads)
	e.sinceRebuild += int64(len(newUnd))
	if res.Merged > 0 {
		e.cen = e.cen.advance(e.inc, newUnd, res.Merged, e.opt.Threads)
	}
	if e.pastThreshold() {
		e.rebuildLocked()
		res.Rebuilt = true
	}
	e.foldLargeDeltaLocked()
	res.Components = e.inc.ComponentCount()
	return res, nil
}

// liveKey packs an arc, or a normalized undirected edge, into a key of the
// delta's membership index.
func liveKey(u, v V) uint64 { return uint64(u)<<32 | uint64(v) }

// hasArc reports whether the arc u→v (compute ids) is live: the delta's
// index decides for every arc it has logged, the base for the rest.
func (e *Engine) hasArc(u, v V) bool {
	if p, ok := e.live[liveKey(u, v)]; ok {
		return p
	}
	return e.dir.HasArc(u, v)
}

// hasEdge reports whether the undirected edge {u,v} is live. On a directed
// engine that is an arc in either direction.
func (e *Engine) hasEdge(u, v V) bool {
	if e.directed {
		return e.hasArc(u, v) || e.hasArc(v, u)
	}
	if p, ok := e.live[liveKey(min(u, v), max(u, v))]; ok {
		return p
	}
	return e.und.HasEdge(u, v)
}

// setLive records the presence of key k in the membership index.
func (e *Engine) setLive(k uint64, present bool) {
	if e.live == nil {
		e.live = make(map[uint64]bool)
	}
	e.live[k] = present
}

// logArc appends an arc change (an insert of an absent arc, or a delete of
// a present one) to the delta.
func (e *Engine) logArc(u, v V, del bool) {
	e.arcLog = append(e.arcLog, graph.Change{U: u, V: v, Del: del})
	e.arcGen++
	e.setLive(liveKey(u, v), !del)
}

// logEdge appends an undirected-edge change to the delta. On a directed
// engine the index tracks arcs only; hasEdge derives edges from them.
func (e *Engine) logEdge(u, v V, del bool) {
	u, v = min(u, v), max(u, v)
	e.edgeLog = append(e.edgeLog, graph.Change{U: u, V: v, Del: del})
	e.edgeGen++
	if !e.directed {
		e.setLive(liveKey(u, v), !del)
	}
}

// directedView is the directed side of an epoch's graph: the compute CSR
// and, under a reorder, the caller-id CSR.
type directedView struct {
	dir, origDir *Directed
}

// undirectedView is the undirected side of an epoch's graph: the compute
// CSR and, under a reorder, the caller-id CSR with the edge-id translation
// between them, which eidMap computes on first use.
type undirectedView struct {
	und, origUnd *Undirected
	eid          *eidMemo
}

// eidMemo holds a reordered undirected view's edge-id translation, from the
// caller-id CSR's dense edge ids to the compute CSR's. Only edge-indexed
// results need it (the BiCC and BgCC remaps, which bridges go through), so
// the first of those computes it.
type eidMemo struct {
	once sync.Once
	m    []int64
}

// eidMap returns view v's edge-id translation, computing it on first use.
// Only reordered engines call it.
func (e *Engine) eidMap(v undirectedView) []int64 {
	v.eid.once.Do(func() { v.eid.m = e.perm.EdgeIDMap(v.origUnd, v.und, e.opt.Threads) })
	return v.eid.m
}

// graphSet is the engine's base graph, as a serving epoch captures it: the
// directed CSRs of a directed engine or the undirected CSR of an undirected
// one (each with its caller-id twin under a reorder), plus what is derived
// from them on first use.
type graphSet struct {
	directedView
	und, origUnd *Undirected // undirected engines only
	memo         *baseMemo
}

// baseMemo holds what is derived from one base graph on first use. The
// engine and every serving epoch on that base share it; a re-base starts a
// new one.
type baseMemo struct {
	// eid is the base undirected view's edge-id translation.
	eid eidMemo
}

// base returns the engine's base graph pointers.
func (e *Engine) base() graphSet {
	return graphSet{directedView{e.dir, e.origDir}, e.und, e.origUnd, e.memo}
}

// undirectedOf returns base b's undirected view. An undirected engine's base
// is that view. A directed engine derives it from its directed CSRs, which
// build it on the first call and keep it (graph.Directed.Undirected), so
// every epoch on the base shares one copy.
func (e *Engine) undirectedOf(b graphSet) undirectedView {
	v := undirectedView{und: b.und, origUnd: b.origUnd, eid: &b.memo.eid}
	if b.dir != nil {
		v.und = b.dir.Undirected(e.opt.Threads)
		if b.origDir != nil {
			v.origUnd = b.origDir.Undirected(e.opt.Threads)
		}
	}
	return v
}

// undirectedEdgesLocked returns the base's undirected edge count. A
// directed engine counts it on first need, once, from its out-CSR alone:
// |A| less one per mutual arc pair (stats.MutualArcs).
func (e *Engine) undirectedEdgesLocked() int64 {
	if e.undEdges < 0 {
		e.undEdges = e.dir.NumArcs() - stats.MutualArcs(e.dir, e.opt.Threads)/2
	}
	return e.undEdges
}

// baseEdgesAtMost reports whether the base has at most x undirected edges.
// A directed base that has not counted them decides from |A|/2 ≤ |E| ≤ |A|
// and counts only when that bound cannot.
func (e *Engine) baseEdgesAtMost(x int64) bool {
	if e.undEdges < 0 {
		if a := e.dir.NumArcs(); a <= x || (a+1)/2 > x {
			return a <= x
		}
	}
	return e.undirectedEdgesLocked() <= x
}

// resetBudget starts a new rebuild budget at the current, re-based graph.
func (e *Engine) resetBudget() {
	e.baseEdges, e.foldedNet, e.sinceRebuild = e.undEdges, 0, 0
	if e.directed {
		e.baseArcs = e.dir.NumArcs()
	}
}

// pastThreshold reports whether the undirected edges changed since the last
// (re)build reach Options.RebuildThreshold times the graph's size then. An
// uncounted size is decided from the bound baseEdgesAtMost uses; only when
// that cannot decide is the current base counted, less the net change
// re-bases have merged into it since.
func (e *Engine) pastThreshold() bool {
	th := e.opt.rebuildThreshold()
	over := func(m int64) bool { return th > 0 && float64(e.sinceRebuild) >= th*float64(m+1) }
	if e.baseEdges < 0 {
		if lo, hi := (e.baseArcs+1)/2, e.baseArcs; over(hi) || !over(lo) {
			return over(hi)
		}
		e.baseEdges = e.undirectedEdgesLocked() - e.foldedNet
	}
	return over(e.baseEdges)
}

// toOrig translates a compute-id change log into caller ids.
func toOrig(perm *graph.Permutation, log []graph.Change) []graph.Change {
	out := make([]graph.Change, len(log))
	for i, c := range log {
		out[i] = graph.Change{U: perm.Inv[c.U], V: perm.Inv[c.V], Del: c.Del}
	}
	return out
}

// patchDirected merges an arc log into the base's directed CSRs: one
// linear merge per CSR direction, no edge list and no global sort. It reads
// its inputs but never mutates them, so the engine (under e.mu) and serving
// snapshots (outside any lock) build views through the same function.
func (e *Engine) patchDirected(b directedView, arcs []graph.Change) directedView {
	if len(arcs) == 0 {
		return b
	}
	v := directedView{dir: b.dir.Patch(arcs, e.opt.Threads)}
	if e.perm != nil {
		v.origDir = b.origDir.Patch(toOrig(e.perm, arcs), e.opt.Threads)
	}
	return v
}

// patchUndirected merges an undirected-edge log into an undirected view.
// Under a reorder the caller-id CSR takes the same log in caller ids, and
// the patched view gets its own edge-id translation: dense ids shift when
// edges come and go.
func (e *Engine) patchUndirected(b undirectedView, edges []graph.Change) undirectedView {
	if len(edges) == 0 {
		return b
	}
	v := undirectedView{und: b.und.Patch(edges, e.opt.Threads), eid: new(eidMemo)}
	if e.perm != nil {
		v.origUnd = b.origUnd.Patch(toOrig(e.perm, edges), e.opt.Threads)
	}
	return v
}

// rebaseLocked merges the delta into a fresh base and starts empty logs. A
// directed engine patches its directed CSRs; an undirected view they have
// built moves to the new base with the edge log merged in
// (graph.Directed.PatchWithView), and one they have not is left unbuilt.
// Queries that walk adjacency re-base lazily; pure connectivity queries
// never pay for it. Published graph pointers are never mutated in place,
// and old logs are dropped rather than reused, so snapshots holding the old
// base and a prefix of the old delta stay valid.
func (e *Engine) rebaseLocked() {
	if len(e.arcLog) == 0 && len(e.edgeLog) == 0 {
		return
	}
	// Only effective changes are logged, so the log nets out exactly.
	var net int64
	for _, c := range e.edgeLog {
		if c.Del {
			net--
		} else {
			net++
		}
	}
	if e.undEdges >= 0 {
		e.undEdges += net
	}
	e.foldedNet += net
	th := e.opt.Threads
	if e.directed {
		e.dir = e.dir.PatchWithView(e.arcLog, e.edgeLog, th)
		if e.perm != nil {
			e.origDir = e.origDir.PatchWithView(toOrig(e.perm, e.arcLog), toOrig(e.perm, e.edgeLog), th)
		}
	} else {
		u := e.patchUndirected(e.undirectedOf(e.base()), e.edgeLog)
		e.und, e.origUnd = u.und, u.origUnd
	}
	e.memo = new(baseMemo)
	e.arcLog, e.edgeLog, e.live = nil, nil, nil
	e.stale = true
	if e.snap != nil {
		e.snap = &Snapshot{epoch: e.snap.husk()}
	}
}

// foldLargeDeltaLocked re-bases once a log has grown to the size of its
// base. The rebuild threshold normally re-bases long before; with it off
// (negative) this fixed rule keeps the delta, and the cost of merging it
// into every view, bounded by the graph itself.
func (e *Engine) foldLargeDeltaLocked() {
	if n := int64(len(e.edgeLog)); n > 0 && e.baseEdgesAtMost(n) {
		e.rebaseLocked()
	} else if n := int64(len(e.arcLog)); n > 0 && n >= e.dir.NumArcs() {
		e.rebaseLocked()
	}
}

// rebuildLocked is the fall-back-to-static path: re-base the graph, run the
// full cc pipeline, and reseed the incremental state and the census from the
// fresh decomposition. In dynamic mode the forest stays authoritative for
// future updates; the rebuild re-canonicalizes the census through the static
// pipeline (re-resolving the CC policy chooser against the reshaped graph)
// and resets the rebuild budget.
func (e *Engine) rebuildLocked() {
	e.rebaseLocked()
	res := e.ccSolve(e.base(), nil)
	e.cen = newCensus(res)
	if e.dyn == nil {
		e.inc = inc.FromLabels(res.Label, res.NumComponents)
	}
	e.resetBudget()
}
