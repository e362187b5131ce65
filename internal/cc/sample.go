package cc

import (
	"aquila/internal/parallel"
	"aquila/internal/unionfind"
)

// sampleChunk is the vertex-chunk grain of the sampling and finish loops:
// cancellation is polled and dynamic scheduling rebalances at this boundary.
const sampleChunk = 1024

// largestSampleSize bounds the frequency sample used to identify the
// provisional largest component (the Afforest paper's trick: a few hundred
// Finds pin down the dominant component with overwhelming probability).
const largestSampleSize = 1024

// afforestRounds is the number of Afforest sampling rounds — two, the
// Afforest paper's sweet spot.
const afforestRounds = 2

// runSampling executes the policy's sampling phase into uf and returns the
// root of the provisional largest component (valid only when ok). SampleNone
// returns no largest; Afforest unions a subgraph of the edges and then
// locates the component the finish phase should skip.
func runSampling(rw rows, pol Policy, uf *unionfind.Concurrent, res *Result, p int, done <-chan struct{}) (largest uint32, ok bool) {
	if pol.Sampling == SampleNone {
		return 0, false
	}
	// Afforest subgraph sampling: afforestRounds rounds of "union each
	// vertex with its next neighbor". Processing neighbor r of every vertex
	// per round (rather than every sampled neighbor of one vertex at a time)
	// is what lets the giant component coalesce across rounds.
	off, adj := rw.off, rw.adj
	for r := 0; r < afforestRounds; r++ {
		if parallel.Stopped(done) {
			return 0, false
		}
		r := r
		res.Stats.SampleMerges += forEachVertexChunk(rw.n, p, done, func(lo, hi int) int {
			m := 0
			for v := lo; v < hi; v++ {
				if i := off[v] + int64(r); i < off[v+1] {
					if _, merged := uf.Unite(uint32(v), uint32(adj[i])); merged {
						m++
					}
				}
			}
			return m
		})
	}
	if parallel.Stopped(done) {
		return 0, false
	}
	return mostFrequentRoot(uf, rw.n)
}

// forEachVertexChunk runs body over dynamic vertex chunks with cancellation
// polled per chunk, summing the per-chunk ints (merge counters) race-free
// through per-worker cells.
func forEachVertexChunk(n, p int, done <-chan struct{}, body func(lo, hi int) int) int {
	sums := make([]int, p)
	parallel.ForChunksDynamic(0, n, p, sampleChunk, func(lo, hi, w int) {
		if parallel.Stopped(done) {
			return
		}
		sums[w] += body(lo, hi)
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	return total
}

// mostFrequentRoot samples up to largestSampleSize vertices and returns the
// most frequent component root — the provisional largest component. On tiny
// graphs it scans every vertex. ok is false when the winner is a singleton
// sample (no component worth skipping).
func mostFrequentRoot(uf *unionfind.Concurrent, n int) (uint32, bool) {
	if n == 0 {
		return 0, false
	}
	counts := make(map[uint32]int, 64)
	if n <= largestSampleSize {
		for v := 0; v < n; v++ {
			counts[uf.Find(uint32(v))]++
		}
	} else {
		for i := 0; i < largestSampleSize; i++ {
			v := mix64(uint64(i)) % uint64(n)
			counts[uf.Find(uint32(v))]++
		}
	}
	best, bestCount := uint32(0), 0
	for root, c := range counts {
		if c > bestCount || (c == bestCount && root < best) {
			best, bestCount = root, c
		}
	}
	return best, bestCount > 1
}

// mix64 is SplitMix64's finalizer: a stateless, high-quality 64-bit mixer
// used as the deterministic sampling "RNG" (no shared state, no math/rand).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
