package aquila

import (
	"errors"
	"fmt"

	"aquila/internal/cc"
	"aquila/internal/dyn"
	"aquila/internal/graph"
)

// UpdateOp discriminates the two batch update operations.
type UpdateOp uint8

const (
	// OpInsert adds an edge (directed engines: an arc U→V whose endpoints
	// also join in the undirected view, mirroring Apply).
	OpInsert UpdateOp = iota
	// OpDelete removes an edge (directed engines: the arc U→V; the endpoints
	// part in the undirected view only when neither direction remains).
	OpDelete
)

func (op UpdateOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("UpdateOp(%d)", uint8(op))
}

// Update is one edge mutation in an ApplyUpdates batch.
type Update struct {
	Op   UpdateOp
	U, V V
}

// Insert builds an insert update (Apply's historical operation).
func Insert(u, v V) Update { return Update{Op: OpInsert, U: u, V: v} }

// Delete builds a delete update.
func Delete(u, v V) Update { return Update{Op: OpDelete, U: u, V: v} }

// ErrDeletesDisabled is returned by ApplyUpdates when a batch contains
// delete operations but Options.DisableDynamic pinned the engine to the
// monotone insert-only incremental layer.
var ErrDeletesDisabled = errors.New("aquila: delete updates need the dynamic layer (Options.DisableDynamic is set)")

// Dynamic reports whether the engine has promoted to the fully dynamic
// connectivity structure (which happens on the first batch containing a
// delete operation).
func (e *Engine) Dynamic() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dyn != nil
}

// ApplyUpdates applies a mixed batch of edge insertions and deletions in
// order and returns the batch summary. Insert-only batches on an engine that
// has never seen a delete take exactly the Apply fast path (CAS union-find);
// the first delete transparently promotes the engine to the fully dynamic
// spanning forest (internal/dyn), after which every batch — including pure
// inserts routed through Apply — maintains the forest instead.
//
// Semantics per operation (endpoints must be existing vertices; Apply and
// ApplyUpdates never grow the vertex set):
//
//   - inserting an edge that already exists is a no-op (counted in neither
//     NewEdges nor Merged), and self-loops are always dropped, mirroring
//     Apply and the CSR builders;
//   - deleting an edge that does not exist is a no-op;
//   - on directed engines the arc set is authoritative: deleting arc U→V
//     removes the undirected edge {U,V} only when arc V→U is absent too.
//
// Cache invalidation mirrors Apply, extended for deletions: a batch whose
// net effect merges or splits components invalidates the CC-derived caches
// (re-derived from the forest census, not recomputed by traversal); any
// structural change invalidates the adjacency-shaped caches (SCC, BiCC,
// BgCC, APs, bridges, betweenness, coreness), which recompute lazily — at
// which point the CC/SCC/BiCC policy choosers re-resolve against the
// reshaped graph. Past Options.RebuildThreshold (counting inserts plus
// deletes since the last rebuild) the engine falls back to the static CC
// pipeline to re-canonicalize, exactly like the insert-only path.
func (e *Engine) ApplyUpdates(batch []Update) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.und.NumVertices()
	hasDelete := false
	for _, up := range batch {
		if int(up.U) >= n || int(up.V) >= n {
			return nil, fmt.Errorf("aquila: ApplyUpdates: edge (%d,%d) out of range [0,%d)", up.U, up.V, n)
		}
		switch up.Op {
		case OpInsert:
		case OpDelete:
			hasDelete = true
		default:
			return nil, fmt.Errorf("aquila: ApplyUpdates: unknown op %d on edge (%d,%d)", up.Op, up.U, up.V)
		}
	}
	if e.dyn == nil {
		if !hasDelete {
			// Pure inserts before any delete: the monotone CAS union-find
			// path is strictly faster, so stay on it.
			edges := make([]Edge, len(batch))
			for i, up := range batch {
				edges[i] = Edge{U: up.U, V: up.V}
			}
			return e.applyLocked(edges)
		}
		if e.opt.DisableDynamic {
			return nil, ErrDeletesDisabled
		}
		e.promoteDynLocked()
	}
	return e.applyUpdatesDynLocked(batch)
}

// promoteDynLocked retires the insert-only incremental layer and builds the
// fully dynamic spanning forest from the materialized graph. Called (under
// e.mu) on the first batch containing a delete.
func (e *Engine) promoteDynLocked() {
	e.materializeLocked() // fold any pending insert delta first
	f := dyn.NewForest(e.und.NumVertices())
	for _, ep := range e.und.EdgeEndpoints() {
		f.Link(ep[0], ep[1])
	}
	if e.directed {
		// The arc set becomes authoritative for the directed graph (and for
		// when an undirected edge may be cut).
		e.dirSet = make(map[[2]V]struct{}, e.dir.NumArcs())
		for u := 0; u < e.dir.NumVertices(); u++ {
			for _, v := range e.dir.Out(V(u)) {
				e.dirSet[[2]V{V(u), v}] = struct{}{}
			}
		}
	} else {
		e.dirSet = nil
	}
	e.dyn = f
	e.inc = nil
	e.undSet = nil
	e.baseEdges = e.und.NumEdges()
	e.sinceRebuild = 0
}

// applyUpdatesDynLocked processes one mixed batch against the dynamic
// forest. All graph mutation happens here, in compute ids; CSRs go stale
// (dynDirty) and are rebuilt lazily by materializeLocked.
func (e *Engine) applyUpdatesDynLocked(batch []Update) (*ApplyResult, error) {
	res := &ApplyResult{Dynamic: true}
	changedUnd, changedDir := false, false
	for _, up := range batch {
		u, v := e.mapPair(up.U, up.V)
		switch {
		case e.directed && up.Op == OpInsert:
			if u == v {
				continue // self-loops never enter the CSRs; mirror Apply
			}
			key := [2]V{u, v}
			if _, dup := e.dirSet[key]; dup {
				continue
			}
			e.dirSet[key] = struct{}{}
			res.NewArcs++
			changedDir = true
			if !e.dyn.HasEdge(u, v) {
				res.NewEdges++
				changedUnd = true
				if e.dyn.Link(u, v) {
					res.Merged++
				}
			}
		case e.directed && up.Op == OpDelete:
			if u == v {
				continue
			}
			key := [2]V{u, v}
			if _, ok := e.dirSet[key]; !ok {
				continue
			}
			delete(e.dirSet, key)
			res.DeletedArcs++
			changedDir = true
			if _, rev := e.dirSet[[2]V{v, u}]; !rev {
				res.DeletedEdges++
				changedUnd = true
				if split, _ := e.dyn.Cut(u, v); split {
					res.Split++
				}
			}
		case up.Op == OpInsert:
			if u == v {
				continue // self-loops never enter the CSRs; mirror Apply
			}
			if !e.dyn.HasEdge(u, v) {
				res.NewEdges++
				changedUnd = true
				if e.dyn.Link(u, v) {
					res.Merged++
				}
			}
		default: // undirected delete
			if u == v {
				continue
			}
			split, existed := e.dyn.Cut(u, v)
			if existed {
				res.DeletedEdges++
				changedUnd = true
				if split {
					res.Split++
				}
			}
		}
	}

	if changedUnd || changedDir {
		e.cacheGen++
		e.dynDirty = true
		e.sinceRebuild += int64(res.NewEdges + res.DeletedEdges)
		if changedUnd {
			if res.Merged > 0 || res.Split > 0 {
				e.ccRaw, e.ccRes, e.largestCC, e.cen = nil, nil, nil, nil
			}
			e.biccRes, e.bgccRes, e.apOnly, e.brOnly = nil, nil, nil, nil
			e.betweenness, e.coreness = nil, nil
		}
		if changedDir {
			e.sccRes, e.condensation = nil, nil
		}
		if th := e.opt.rebuildThreshold(); th > 0 && float64(e.sinceRebuild) >= th*float64(e.baseEdges+1) {
			e.rebuildLocked()
			res.Rebuilt = true
		}
	}
	res.Components = e.dyn.ComponentCount()
	return res, nil
}

// materializeDynLocked rebuilds the CSR graphs from the dynamic edge sets.
// Unlike the insert-only delta fold, deletions mean the new CSR cannot be
// derived by appending — it is rebuilt from the forest's live edge list (or,
// directed, the authoritative arc set).
func (e *Engine) materializeDynLocked() {
	if !e.dynDirty {
		return
	}
	th := e.opt.Threads
	if e.directed {
		edges := make([]graph.Edge, 0, len(e.dirSet))
		for k := range e.dirSet {
			edges = append(edges, graph.Edge{U: k[0], V: k[1]})
		}
		e.dir = graph.BuildDirectedThreads(e.dir.NumVertices(), edges, th)
		e.und = graph.UndirectThreads(e.dir, th)
	} else {
		pairs := e.dyn.EdgeList(nil)
		edges := make([]graph.Edge, 0, len(pairs))
		for _, p := range pairs {
			edges = append(edges, graph.Edge{U: p[0], V: p[1]})
		}
		e.und = graph.BuildUndirectedThreads(e.und.NumVertices(), edges, th)
	}
	if e.perm != nil {
		// Same inverse-relabeling dance as the insert-only fold: the compute
		// CSRs absorbed the updates in compute ids, the caller-id graphs and
		// the edge-id translation are re-derived from them.
		inv := &graph.Permutation{Perm: e.perm.Inv, Inv: e.perm.Perm}
		if e.directed {
			e.origDir = inv.ApplyDirected(e.dir, th)
			e.origUnd = graph.UndirectThreads(e.origDir, th)
		} else {
			e.origUnd = inv.ApplyUndirected(e.und, th)
		}
		e.eidMap = e.perm.EdgeIDMap(e.origUnd, e.und, th)
	}
	e.dynDirty = false
}

// ccResultFromLabels materializes a cc.Result from a canonical min-id
// labeling — the dynamic-mode analog of inc.CCResult: the forest census
// replaces any traversal. Dynamic epochs publish it as a census with an
// empty overlay.
func ccResultFromLabels(label []uint32, num int) *cc.Result {
	res := &cc.Result{Label: label, NumComponents: num, Sizes: make(map[uint32]int, num)}
	for _, l := range label {
		res.Sizes[l]++
	}
	for l, c := range res.Sizes {
		if c > res.LargestSize || (c == res.LargestSize && l < res.LargestLabel) {
			res.LargestSize = c
			res.LargestLabel = l
		}
	}
	return res
}
