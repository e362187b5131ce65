package graph

// AppendWorkChunks partitions verts into contiguous chunks of roughly equal
// work, where the work of a vertex is its degree per the CSR offset array off
// (plus one for the vertex itself, so zero-degree runs still split). It
// appends the end index of every chunk to bounds and returns the extended
// slice; the last appended bound is always len(verts). With a warm bounds
// slice (capacity retained across calls) it allocates nothing.
//
// This is the degree-aware frontier partition behind top-down BFS expansion
// and label propagation: chunks carry equal edge work instead of equal vertex
// counts, so one hub vertex cannot serialize a level (work-proportional
// chunking, as in Ligra/GBBS's edgeMap granularity).
func AppendWorkChunks(off []int64, verts []V, targetWork int64, bounds []int32) []int32 {
	if len(verts) == 0 {
		return bounds
	}
	if targetWork < 1 {
		targetWork = 1
	}
	start := len(bounds)
	var acc int64
	for i, v := range verts {
		acc += off[v+1] - off[v] + 1
		if acc >= targetWork {
			bounds = append(bounds, int32(i+1))
			acc = 0
		}
	}
	if len(bounds) == start || bounds[len(bounds)-1] != int32(len(verts)) {
		bounds = append(bounds, int32(len(verts)))
	}
	return bounds
}

// AppendRangeWorkChunks is AppendWorkChunks over the full vertex range
// [0, len(off)-1): it appends chunk end indices (exclusive vertex bounds) of
// roughly targetWork weight, where a vertex weighs its degree per off plus
// one. The last appended bound is always len(off)-1; an empty range appends
// nothing. The CSR builder's per-vertex passes (segment sort, dedup,
// Undirect's merge) use this so a hub's giant segment cannot serialize a
// whole worker share.
func AppendRangeWorkChunks(off []int64, targetWork int64, bounds []int32) []int32 {
	n := len(off) - 1
	if n <= 0 {
		return bounds
	}
	if targetWork < 1 {
		targetWork = 1
	}
	start := len(bounds)
	var acc int64
	for v := 0; v < n; v++ {
		acc += off[v+1] - off[v] + 1
		if acc >= targetWork {
			bounds = append(bounds, int32(v+1))
			acc = 0
		}
	}
	if len(bounds) == start || bounds[len(bounds)-1] != int32(n) {
		bounds = append(bounds, int32(n))
	}
	return bounds
}

// WorkGrain is the auto-selected per-chunk edge budget for p workers over a
// region with totalWork edge traversals: totalWork/(8p), floored at minGrain.
// Eight chunks per worker keeps dynamic scheduling responsive to skew without
// drowning in claim traffic.
func WorkGrain(totalWork int64, p int, minGrain int64) int64 {
	g := totalWork / int64(8*p)
	if g < minGrain {
		g = minGrain
	}
	return g
}
