package graph

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"aquila/internal/parallel"
)

// Edge is one directed edge (or one undirected edge given as an ordered pair)
// in a builder's edge list.
type Edge struct {
	U, V V
}

// minParallelBuild is the edge count below which the parallel builder's
// coordination (histograms, atomic cursors, chunk scheduling) costs more than
// it saves; smaller inputs take the serial path.
const minParallelBuild = 1 << 14

// buildGrainFloor is the minimum per-chunk edge budget for the degree-chunked
// builder passes (segment sort, dedup, Undirect's merge); below this the dynamic
// claim traffic dominates.
const buildGrainFloor = 2048

// buildThreads resolves the worker count for one build: Threads semantics
// (n < 1 means GOMAXPROCS), clamped to 1 for inputs too small to split.
func buildThreads(threads, m int) int {
	if m < minParallelBuild {
		return 1
	}
	return parallel.Threads(threads)
}

// BuildDirected constructs a Directed graph over n vertices from an edge
// list. Self-loops are dropped and parallel edges deduplicated; adjacency
// lists come out sorted. Endpoints must be < n. Construction is parallel on
// large inputs (GOMAXPROCS workers); use BuildDirectedThreads to pin the
// worker count.
func BuildDirected(n int, edges []Edge) *Directed { return BuildDirectedThreads(n, edges, 0) }

// BuildDirectedThreads is BuildDirected with an explicit worker count
// (Threads semantics: values < 1 mean GOMAXPROCS). It builds the out-CSR from
// the edge list and derives the in-CSR from it by transposeCSR, so the edge
// list is scattered, sorted and deduplicated once. The result is identical to
// BuildDirectedSerial for every worker count.
func BuildDirectedThreads(n int, edges []Edge, threads int) *Directed {
	p := buildThreads(threads, len(edges))
	outOff, outAdj := buildCSR(n, edges, p)
	inOff, inAdj := transposeCSR(outOff, outAdj, p)
	return &Directed{n: n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
}

// BuildDirectedSerial is the single-threaded seed builder, kept as the pinned
// baseline for the parallel-ingestion differential tests and the
// build-throughput benchmarks.
func BuildDirectedSerial(n int, edges []Edge) *Directed {
	outOff, outAdj := buildCSRSerial(n, edges, false)
	inOff, inAdj := buildCSRSerial(n, edges, true)
	return &Directed{n: n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
}

// BuildUndirected constructs an Undirected graph over n vertices. Each input
// edge {u,v} is stored in both adjacency lists regardless of the order given;
// duplicates (including a pair given in both orders) collapse to one edge.
// Self-loops are dropped. Construction is parallel on large inputs; use
// BuildUndirectedThreads to pin the worker count.
func BuildUndirected(n int, edges []Edge) *Undirected { return BuildUndirectedThreads(n, edges, 0) }

// BuildUndirectedThreads is BuildUndirected with an explicit worker count.
// The result is identical to BuildUndirectedSerial for every worker count.
func BuildUndirectedThreads(n int, edges []Edge, threads int) *Undirected {
	p := buildThreads(threads, len(edges))
	if p <= 1 {
		return BuildUndirectedSerial(n, edges)
	}
	// Symmetrize at fixed positions so the fill parallelizes without cursors;
	// self-loop pairs land as {u,u} twice and are dropped by the CSR builder.
	sym := make([]Edge, 2*len(edges))
	parallel.ForBlocks(0, len(edges), p, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			sym[2*i] = e
			sym[2*i+1] = Edge{e.V, e.U}
		}
	})
	off, adj := buildCSR(n, sym, p)
	return &Undirected{n: n, off: off, adj: adj}
}

// BuildUndirectedSerial is the single-threaded seed builder for undirected
// graphs — the pinned baseline mirroring BuildDirectedSerial.
func BuildUndirectedSerial(n int, edges []Edge) *Undirected {
	sym := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		sym = append(sym, e, Edge{e.V, e.U})
	}
	off, adj := buildCSRSerial(n, sym, false)
	return &Undirected{n: n, off: off, adj: adj}
}

// Undirect converts a directed graph to the undirected graph used by CC,
// BiCC and BgCC, per paper §6.1: create a reverse edge for any vertex pair
// that shares only one directed edge, keeping the vertex count unchanged.
//
// It relies on the invariant every Directed carries (the builders, the v1
// and .aqg loaders and the relabelings all establish it): out- and
// in-segments are strictly increasing and loop-free, and the in-CSR is the
// transpose of the out-CSR. Vertex u's undirected list is then exactly the
// sorted union Out(u) ∪ In(u), which a linear merge produces directly.
func Undirect(g *Directed) *Undirected { return UndirectThreads(g, 0) }

// UndirectThreads is Undirect with an explicit worker count. It makes two
// merge passes over the vertices — count |Out(u) ∪ In(u)| into the offsets,
// prefix-sum, then write the unions — on degree-weighted chunks (a vertex
// weighs its out- plus in-degree, so in-hubs balance too). No edge list,
// histogram, atomic or sort is involved; one worker runs the same loops
// serially. The edge-id index is left for EdgeIDs to build on first use.
func UndirectThreads(g *Directed, threads int) *Undirected {
	return undirect(g, buildThreads(threads, len(g.outAdj)))
}

// undirect is UndirectThreads with the worker count already resolved, so the
// differential tests can drive small graphs through the parallel schedule.
func undirect(g *Directed, p int) *Undirected {
	n := g.n
	// Seed off with the summed out/in offsets — itself a CSR offset array,
	// weighting each vertex by out+in degree — and cut the chunk bounds from
	// it before the count pass overwrites off[u+1] with u's union size.
	off := make([]int64, n+1)
	parallel.For(0, n+1, p, func(i int) { off[i] = g.outOff[i] + g.inOff[i] })
	bounds := degreeChunks(off, p)
	forChunks(bounds, p, func(u int) {
		off[u+1] = unionSize(g.Out(V(u)), g.In(V(u)))
	})
	prefixInPlace(off, p)
	adj := make([]V, off[n])
	forChunks(bounds, p, func(u int) {
		unionInto(adj[off[u]:off[u+1]], g.Out(V(u)), g.In(V(u)))
	})
	return &Undirected{n: n, off: off, adj: adj}
}

// unionSize is |a ∪ b| for strictly increasing a and b.
func unionSize(a, b []V) int64 {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		c++
	}
	return int64(c + len(a) - i + len(b) - j)
}

// unionInto writes the sorted union of strictly increasing a and b into dst,
// which must be exactly unionSize(a, b) long.
func unionInto(dst, a, b []V) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst[k] = a[i]
			i++
		case a[i] > b[j]:
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// buildCSR counts, sorts and dedups an edge list into the (U -> V) CSR arrays
// with up to p workers. The output is byte-identical to buildCSRSerial: the
// scatter order differs under the atomic cursors, but the per-vertex sort and
// dedup that follow erase it.
func buildCSR(n int, edges []Edge, p int) ([]int64, []V) {
	if p <= 1 {
		return buildCSRSerial(n, edges, false)
	}
	off := make([]int64, n+1)
	// A vertex's count in one worker's private histogram is bounded by that
	// worker's edge-block size, so int32 counters are safe below the guard
	// limit; at or beyond it they could silently wrap (mirroring
	// internal/parallel's int64 chunk-cursor guard, the failure is loud here:
	// we fall back to int64 counters — twice the histogram footprint, but
	// correct — rather than build a corrupt CSR).
	if histBlockMax(len(edges), p) >= histInt32Limit {
		degreeHistogram[int64](n, edges, p, off)
	} else {
		degreeHistogram[int32](n, edges, p, off)
	}
	prefixInPlace(off, p)

	// Scatter via per-vertex atomic cursors. Slot order within a vertex is
	// nondeterministic here; the segment sort below restores determinism.
	adj := make([]V, off[n])
	cursor := make([]int64, n)
	parallel.For(0, n, p, func(v int) { cursor[v] = off[v] })
	parallel.ForBlocks(0, len(edges), p, func(lo, hi, _ int) {
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				continue
			}
			slot := atomic.AddInt64(&cursor[e.U], 1) - 1
			adj[slot] = e.V
		}
	})

	sortSegments(n, off, adj, p)
	return dedupSegments(n, off, adj, p)
}

// histInt32Limit is the counter value at which the int32 histograms of
// buildCSR and transposeCSR could overflow (2³¹ counts wrap an int32). It is a
// variable only so the int64 fallback paths are unit-testable without
// materializing 2³¹ edges; see TestDegreeHistogramOverflowGuard.
var histInt32Limit = int64(math.MaxInt32)

// histBlockMax is the largest edge-block size any worker receives under the
// even static split blockRange performs.
func histBlockMax(m, p int) int64 {
	return int64((m + p - 1) / p)
}

// degreeHistogram fills off[v+1] with v's out-degree: one private histogram
// per worker over a contiguous block of the edge list (no atomics, no
// sharing), merged vertex-parallel. The counter width is a type parameter so
// the overflow-guarded int64 path shares this exact code.
func degreeHistogram[C int32 | int64](n int, edges []Edge, p int, off []int64) {
	hist := make([][]C, p)
	parallel.Run(p, func(w int) {
		lo, hi := blockRange(len(edges), p, w)
		h := make([]C, n)
		for _, e := range edges[lo:hi] {
			if e.U != e.V {
				h[e.U]++
			}
		}
		hist[w] = h
	})
	parallel.For(0, n, p, func(v int) {
		var d int64
		for _, h := range hist {
			d += int64(h[v])
		}
		off[v+1] = d
	})
}

// transposeCSR derives the in-CSR from a canonical out-CSR (every segment
// strictly increasing and loop-free) with up to p workers, in O(n·p + m) work
// and no atomics, sort or dedup:
//
//  1. cut the sources into contiguous blocks of balanced arc count (plus one
//     per vertex, so long runs of isolated vertices still split);
//  2. each worker counts its block's arcs per target in a private histogram;
//  3. per target v, an exclusive prefix over the workers turns the counts into
//     each worker's start within v's in-segment, and their sum is v's
//     in-degree, which prefix-sums into the offsets;
//  4. each worker scatters its block in ascending source order.
//
// Worker w's sources all precede worker w+1's, and within a worker they are
// written in ascending order, so every in-segment comes out sorted; it is
// duplicate-free because each source lists a target at most once.
//
// Every worker past the first adds an n-counter histogram that is allocated
// and swept in full, so the worker count is capped at 1 + m/2n: the extra
// int32 histograms stay within half the in-adjacency's 4m bytes, and sparse
// graphs, where those sweeps would outweigh the scatter, stay near serial.
func transposeCSR(off []int64, adj []V, p int) ([]int64, []V) {
	if n := len(off) - 1; n > 0 {
		p = min(p, 1+len(adj)/(2*n))
	}
	return transpose(off, adj, max(p, 1))
}

// transpose is transposeCSR on exactly p workers, so the differential tests
// can drive sparse graphs through the parallel schedule.
func transpose(off []int64, adj []V, p int) ([]int64, []V) {
	// A counter never exceeds its target's in-degree, which is at most
	// min(m, n-1) in a canonical CSR.
	if int64(min(len(adj), len(off)-1)) >= histInt32Limit {
		return transposeWith[int64](off, adj, p)
	}
	return transposeWith[int32](off, adj, p)
}

// transposeWith is transposeCSR with the histogram counter width fixed.
func transposeWith[C int32 | int64](off []int64, adj []V, p int) ([]int64, []V) {
	n := len(off) - 1
	src := arcBlocks(off, p)
	hist := make([][]C, p)
	parallel.Run(p, func(w int) {
		h := make([]C, n)
		for _, v := range adj[off[src[w]]:off[src[w+1]]] {
			h[v]++
		}
		hist[w] = h
	})
	inOff := make([]int64, n+1)
	parallel.ForBlocks(0, n, p, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			var d C
			for _, h := range hist {
				c := h[v]
				h[v] = d
				d += c
			}
			inOff[v+1] = int64(d)
		}
	})
	prefixInPlace(inOff, p)
	inAdj := make([]V, len(adj))
	parallel.Run(p, func(w int) {
		h := hist[w]
		for u := src[w]; u < src[w+1]; u++ {
			for _, v := range adj[off[u]:off[u+1]] {
				inAdj[inOff[v]+int64(h[v])] = V(u)
				h[v]++
			}
		}
	})
	return inOff, inAdj
}

// arcBlocks cuts the vertices [0, len(off)-1) into p contiguous blocks of
// about equal weight, a vertex weighing its out-degree plus one, and returns
// the p+1 block bounds. off[u]+u is the weight of the vertices before u and
// strictly increasing, so each cut is a binary search.
func arcBlocks(off []int64, p int) []int {
	n := len(off) - 1
	total := off[n] + int64(n)
	src := make([]int, p+1)
	for w := 1; w < p; w++ {
		target := total * int64(w) / int64(p)
		src[w] = sort.Search(n, func(u int) bool { return off[u]+int64(u) >= target })
	}
	src[p] = n
	return src
}

// buildCSRSerial is the seed builder: count, prefix-sum, scatter, sort, dedup
// — one thread, in place.
func buildCSRSerial(n int, edges []Edge, reverse bool) ([]int64, []V) {
	deg := make([]int64, n+1)
	src := func(e Edge) V { return e.U }
	dst := func(e Edge) V { return e.V }
	if reverse {
		src, dst = dst, src
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[src(e)+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	off := deg // now prefix sums; off[u+1] still the insertion cursor start
	adj := make([]V, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		s := src(e)
		adj[cursor[s]] = dst(e)
		cursor[s]++
	}
	for u := 0; u < n; u++ {
		slices.Sort(adj[off[u]:off[u+1]])
	}
	newOff := make([]int64, n+1)
	w := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		seg := adj[lo:hi]
		newOff[u] = w
		var prev V
		first := true
		for _, v := range seg {
			if first || v != prev {
				adj[w] = v
				w++
				prev = v
				first = false
			}
		}
	}
	newOff[n] = w
	return newOff, adj[:w:w]
}

// sortSegments sorts every vertex's adjacency segment over degree-chunked
// parallel work units, so one hub's giant segment cannot serialize a worker's
// whole vertex range.
func sortSegments(n int, off []int64, adj []V, p int) {
	if p <= 1 {
		for u := 0; u < n; u++ {
			slices.Sort(adj[off[u]:off[u+1]])
		}
		return
	}
	forDegreeChunks(off, p, func(u int) {
		slices.Sort(adj[off[u]:off[u+1]])
	})
}

// dedupSegments compacts sorted adjacency segments, dropping duplicates. It
// counts the unique targets per vertex, prefix-sums the counts into the new
// offsets, and writes the compacted segments — each pass vertex-parallel.
func dedupSegments(n int, off []int64, adj []V, p int) ([]int64, []V) {
	newOff := make([]int64, n+1)
	forDegreeChunks(off, p, func(u int) {
		var c int64
		var prev V
		first := true
		for _, v := range adj[off[u]:off[u+1]] {
			if first || v != prev {
				c++
				prev = v
				first = false
			}
		}
		newOff[u+1] = c
	})
	prefixInPlace(newOff, p)
	newAdj := make([]V, newOff[n])
	forDegreeChunks(off, p, func(u int) {
		w := newOff[u]
		var prev V
		first := true
		for _, v := range adj[off[u]:off[u+1]] {
			if first || v != prev {
				newAdj[w] = v
				w++
				prev = v
				first = false
			}
		}
	})
	return newOff, newAdj
}

// walkEdges visits every undirected edge of a sorted, loop-free CSR once, in
// edge-id order — (lower endpoint, slot) — calling visit(s, r, k) with the
// edge's slot s in the lower endpoint's segment, its reverse slot r and its
// id k. Vertices are taken in ascending order, so when u's turn comes every
// lower neighbour has already claimed its reverse slot at the front of u's
// segment: u's upper slots start at the cursor cur[u], and the reverse slot
// of upper slot s → v is v's next unclaimed slot, cur[v]++. No binary search
// is involved; the scratch is the n cursors.
//
// walkEdges stops and reports false as soon as visit does, or as soon as the
// CSR proves asymmetric: a claimed slot that does not point back, or a lower
// slot still unclaimed when its vertex's turn comes. A true result therefore
// also certifies symmetry.
func walkEdges(off []int64, adj []V, visit func(s, r, k int64) bool) bool {
	n := len(off) - 1
	cur := make([]int64, n)
	copy(cur, off[:n])
	var k int64
	for u := 0; u < n; u++ {
		lo, hi := cur[u], off[u+1]
		if lo < hi && adj[lo] <= V(u) {
			return false
		}
		for s := lo; s < hi; s++ {
			v := adj[s]
			r := cur[v]
			if r >= off[v+1] || adj[r] != V(u) {
				return false
			}
			cur[v] = r + 1
			if !visit(s, r, k) {
				return false
			}
			k++
		}
	}
	return true
}

// forDegreeChunks runs body(u) for every vertex u in [0, len(off)-1), fanned
// out over degree-weighted contiguous chunks (AppendRangeWorkChunks) claimed
// dynamically — the builder-side twin of the traversal kernels' degree-aware
// frontier scheduling.
func forDegreeChunks(off []int64, p int, body func(u int)) {
	forChunks(degreeChunks(off, p), p, body)
}

// degreeChunks cuts [0, len(off)-1) into the degree-weighted chunks
// forDegreeChunks schedules, returned as exclusive end bounds.
func degreeChunks(off []int64, p int) []int32 {
	n := len(off) - 1
	return AppendRangeWorkChunks(off, WorkGrain(off[n]+int64(n), p, buildGrainFloor), nil)
}

// forChunks runs body(u) for every vertex of the chunks bounds describes,
// claiming chunks dynamically with up to p workers.
func forChunks(bounds []int32, p int, body func(u int)) {
	parallel.ForDynamic(0, len(bounds), p, 1, func(ci int) {
		lo := 0
		if ci > 0 {
			lo = int(bounds[ci-1])
		}
		for u := lo; u < int(bounds[ci]); u++ {
			body(u)
		}
	})
}

// prefixInPlace turns per-index weights into inclusive prefix sums:
// a[0] is preserved (must be 0), a[i+1] becomes a[0]+w(0)+...+w(i) where
// w(i) was stored in a[i+1]. Large arrays scan in parallel blocks.
func prefixInPlace(a []int64, p int) {
	n := len(a) - 1
	if p <= 1 || n < 1<<15 {
		for i := 0; i < n; i++ {
			a[i+1] += a[i]
		}
		return
	}
	partial := make([]int64, p+1)
	parallel.Run(p, func(w int) {
		lo, hi := blockRange(n, p, w)
		var s int64
		for i := lo; i < hi; i++ {
			s += a[i+1]
		}
		partial[w+1] = s
	})
	for w := 0; w < p; w++ {
		partial[w+1] += partial[w]
	}
	parallel.Run(p, func(w int) {
		lo, hi := blockRange(n, p, w)
		run := partial[w]
		for i := lo; i < hi; i++ {
			run += a[i+1]
			a[i+1] = run
		}
	})
}

// blockRange is the [lo, hi) share of worker w under an even static split of
// [0, n) into p blocks.
func blockRange(n, p, w int) (int, int) {
	return w * n / p, (w + 1) * n / p
}
