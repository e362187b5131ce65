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
// Result inheritance mirrors Apply, extended for deletions: a batch whose
// net effect merges or splits components drops the CC-derived results
// (re-derived from the forest census, not recomputed by traversal); any
// structural change drops the adjacency-shaped results (SCC, BiCC, BgCC,
// APs, bridges, betweenness, coreness), which recompute lazily — at which
// point the CC/SCC/BiCC policy choosers re-resolve against the reshaped
// graph. Past Options.RebuildThreshold (counting inserts plus
// deletes since the last rebuild) the engine falls back to the static CC
// pipeline to re-canonicalize, exactly like the insert-only path.
func (e *Engine) ApplyUpdates(batch []Update) (*ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.n
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
		if err := dynFits(n, e.undirectedEdgesLocked()+int64(len(e.edgeLog)), batch); err != nil {
			return nil, err
		}
		e.promoteDynLocked()
	}
	return e.applyUpdatesDynLocked(batch)
}

// promoteDynLocked retires the insert-only incremental layer and builds the
// fully dynamic spanning forest from the re-based graph, presized from its
// undirected edge count. It links every undirected edge u < v in the order
// of a walk over the undirected CSR's rows. A directed engine merges each
// row from Out(u) and In(u) as it goes, which visits the same edges in the
// same order without building the undirected CSR (the in-CSR it builds if
// the base has not). Called (under e.mu) on the first batch containing a
// delete.
func (e *Engine) promoteDynLocked() {
	e.rebaseLocked() // fold any pending delta first
	b := e.base()
	m := e.undirectedEdgesLocked()
	f := dyn.NewForestSized(e.n, int(m))
	link := func(u int, row []V) {
		for _, v := range row {
			if V(u) < v {
				f.Link(V(u), v)
			}
		}
	}
	if b.dir != nil {
		var row []V
		inOff, inAdj := b.dir.InCSR()
		for u := 0; u < e.n; u++ {
			row = graph.AppendUnion(row[:0], b.dir.Out(V(u)), inAdj[inOff[u]:inOff[u+1]])
			link(u, row)
		}
	} else {
		off, adj := b.und.CSR()
		for u := 0; u < e.n; u++ {
			link(u, adj[off[u]:off[u+1]])
		}
	}
	e.dyn = f
	e.inc = nil
	e.resetBudget()
}

// dynFits refuses, before any of it applies, a batch that could take a
// forest over n vertices and live edges past the limits of its int32
// links: every insert counts as new.
func dynFits(n int, live int64, batch []Update) error {
	for _, up := range batch {
		if up.Op == OpInsert {
			live++
		}
	}
	if n > dyn.MaxVertices || live > dyn.MaxEdges {
		return fmt.Errorf("aquila: %d vertices and up to %d edges exceed the dynamic forest's limits (%d and %d)", n, live, dyn.MaxVertices, dyn.MaxEdges)
	}
	return nil
}

// applyUpdatesDynLocked processes one mixed batch against the dynamic
// forest. Every effective change goes to the forest and to the signed delta;
// the CSRs are re-based lazily.
func (e *Engine) applyUpdatesDynLocked(batch []Update) (*ApplyResult, error) {
	if err := dynFits(e.dyn.NumVertices(), int64(e.dyn.NumEdges()), batch); err != nil {
		return nil, err
	}
	e.stale = true
	res := &ApplyResult{Dynamic: true}
	for _, up := range batch {
		u, v := up.U, up.V
		if u == v {
			continue // self-loops never enter the CSRs; mirror Apply
		}
		del := up.Op == OpDelete
		if e.directed {
			// The arc set is authoritative: the undirected edge changes only
			// when the reverse arc is absent.
			if e.hasArc(u, v) != del {
				continue
			}
			e.logArc(u, v, del)
			if del {
				res.DeletedArcs++
			} else {
				res.NewArcs++
			}
			if e.hasArc(v, u) {
				continue
			}
		} else if e.hasEdge(u, v) != del {
			continue
		}
		e.logEdge(u, v, del)
		if del {
			res.DeletedEdges++
			if split, _ := e.dyn.Cut(u, v); split {
				res.Split++
			}
		} else {
			res.NewEdges++
			if e.dyn.Link(u, v) {
				res.Merged++
			}
		}
	}

	if changed := res.NewEdges + res.DeletedEdges; changed+res.NewArcs+res.DeletedArcs > 0 {
		e.sinceRebuild += int64(changed)
		if res.Merged > 0 || res.Split > 0 {
			e.cen = nil // the next capture re-derives it from the forest
		}
		if e.pastThreshold() {
			e.rebuildLocked()
			res.Rebuilt = true
		}
		e.foldLargeDeltaLocked()
	}
	res.Components = e.dyn.ComponentCount()
	return res, nil
}

// ccResultFromLabels materializes a cc.Result from a canonical min-id
// labeling — the dynamic-mode analog of inc.CCResult: the forest census
// replaces any traversal. Dynamic epochs capture it as a census with an
// empty overlay. Sizes are counted in a dense array first, so the map sees
// one insert per component rather than one update per vertex.
func ccResultFromLabels(label []uint32, num int) *cc.Result {
	res := &cc.Result{Label: label, NumComponents: num, Sizes: make(map[uint32]int, num)}
	counts := make([]int32, len(label))
	for _, l := range label {
		counts[l]++
	}
	// Ascending labels: a tie keeps the smaller label, as in every cc.Result.
	for l, c := range counts {
		if c == 0 {
			continue
		}
		res.Sizes[uint32(l)] = int(c)
		if int(c) > res.LargestSize {
			res.LargestSize, res.LargestLabel = int(c), uint32(l)
		}
	}
	return res
}
