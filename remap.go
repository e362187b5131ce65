package aquila

// Result remapping for reordered engines. When Options.Reorder relabels the
// graph, every kernel runs in the relabeled ("compute") id space; the helpers
// here translate results back to the caller's original ids at cache-fill time,
// so everything downstream of the caches is space-oblivious.
//
// Vertex-indexed arrays translate by orig[ov] = raw[Perm[ov]]; label values
// (which are vertex ids) translate through Inv; edge-indexed arrays translate
// through the engine's eidMap (original dense edge id -> compute edge id).
// The remapped labels remain self-representative (label[l] == l), because
// conjugating a partition by a bijection preserves representatives — but they
// are NOT min-id canonical, which is why the incremental union-find is always
// seeded from the raw compute-space labels (see Engine.ccRawLocked).

import (
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/scc"
)

// mapPair translates an update's endpoints (original ids) into the compute
// id space. Updates are endpoint-addressed, not edge-id-addressed, so both
// inserts and deletes translate the same way — a delete of original edge
// {U,V} cuts compute edge {Perm[U],Perm[V]} regardless of how dense edge ids
// shifted since the reorder (the forest and the delta's membership index are
// keyed by endpoints, never by eidMap positions).
func (e *Engine) mapPair(u, v V) (V, V) {
	if e.perm == nil {
		return u, v
	}
	return e.perm.Perm[u], e.perm.Perm[v]
}

// remapComponents translates a compute-space (Label, LargestLabel, Sizes)
// triple into original ids under p.
func remapComponents(label []uint32, largest uint32, sizes map[uint32]int, p *graph.Permutation, threads int) ([]uint32, uint32, map[uint32]int) {
	out := make([]uint32, len(label))
	parallel.For(0, len(label), parallel.Threads(threads), func(ov int) {
		out[ov] = p.Inv[label[p.Perm[ov]]]
	})
	outSizes := make(map[uint32]int, len(sizes))
	for l, s := range sizes {
		outSizes[p.Inv[l]] = s
	}
	return out, p.Inv[largest], outSizes
}

// remapCC returns raw translated to original ids (a fresh Result; raw is not
// mutated — it stays cached for incremental seeding).
func remapCC(raw *cc.Result, p *graph.Permutation, threads int) *cc.Result {
	out := *raw
	out.Label, out.LargestLabel, out.Sizes = remapComponents(raw.Label, raw.LargestLabel, raw.Sizes, p, threads)
	return &out
}

func remapSCC(raw *scc.Result, p *graph.Permutation, threads int) *scc.Result {
	out := *raw
	out.Label, out.LargestLabel, out.Sizes = remapComponents(raw.Label, raw.LargestLabel, raw.Sizes, p, threads)
	return &out
}

// remapBiCC translates IsAP by vertex and BlockOf by edge id (block labels
// are opaque and stay as-is).
func remapBiCC(raw *bicc.Result, p *graph.Permutation, eidMap []int64, threads int) *bicc.Result {
	out := *raw
	th := parallel.Threads(threads)
	out.IsAP = make([]bool, len(raw.IsAP))
	parallel.For(0, len(raw.IsAP), th, func(ov int) {
		out.IsAP[ov] = raw.IsAP[p.Perm[ov]]
	})
	if raw.BlockOf != nil {
		out.BlockOf = make([]int64, len(raw.BlockOf))
		parallel.For(0, len(raw.BlockOf), th, func(k int) {
			out.BlockOf[k] = raw.BlockOf[eidMap[k]]
		})
	}
	return &out
}

// remapBgCC translates IsBridge by edge id and Label by vertex; label values
// become original vertex ids in the same component (still self-representative,
// not necessarily the component minimum).
func remapBgCC(raw *bgcc.Result, p *graph.Permutation, eidMap []int64, threads int) *bgcc.Result {
	out := *raw
	th := parallel.Threads(threads)
	out.IsBridge = make([]bool, len(raw.IsBridge))
	parallel.For(0, len(raw.IsBridge), th, func(k int) {
		out.IsBridge[k] = raw.IsBridge[eidMap[k]]
	})
	if raw.Label != nil {
		out.Label = make([]uint32, len(raw.Label))
		parallel.For(0, len(raw.Label), th, func(ov int) {
			out.Label[ov] = p.Inv[raw.Label[p.Perm[ov]]]
		})
	}
	return &out
}

// remapFloats translates a vertex-indexed score array (betweenness).
func remapFloats(raw []float64, p *graph.Permutation, threads int) []float64 {
	out := make([]float64, len(raw))
	parallel.For(0, len(raw), parallel.Threads(threads), func(ov int) {
		out[ov] = raw[p.Perm[ov]]
	})
	return out
}

// remapInt32s translates a vertex-indexed array (coreness).
func remapInt32s(raw []int32, p *graph.Permutation, threads int) []int32 {
	out := make([]int32, len(raw))
	parallel.For(0, len(raw), parallel.Threads(threads), func(ov int) {
		out[ov] = raw[p.Perm[ov]]
	})
	return out
}
