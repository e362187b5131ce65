// Package aquila is an adaptive parallel computation framework for graph
// connectivity queries, reproducing "AQUILA: Adaptive Parallel Computation of
// Graph Connectivity Queries" (Ji & Huang, HPDC 2020).
//
// Aquila answers queries over five connectivity decompositions — connected
// components (CC), weakly and strongly connected components (WCC/SCC),
// biconnected components (BiCC) and bridgeless connected components (BgCC),
// collectively "XCC" — and applies three technique families:
//
//   - Query transformation: queries answerable with partial computation
//     (is the graph connected? what is the largest component? which vertices
//     are articulation points?) never pay for the full decomposition.
//   - Workload reduction: trivial-pattern trimming and single-parent-only
//     pruning remove up to ~98% of the BiCC/BgCC traversal workload.
//   - Adaptive parallel computation: an enhanced data-parallel BFS
//     (multi-pivot sampling, relaxed synchronization, direction switching)
//     computes the few large components; task-parallel label propagation and
//     concurrent small BFSes sweep the many small ones.
//
// Basic use:
//
//	g, _ := aquila.LoadEdgeList(file)
//	eng := aquila.NewDirectedEngine(g, aquila.Options{})
//	fmt.Println(eng.IsConnected())       // partial computation
//	fmt.Println(eng.CC().NumComponents)  // complete computation
//	fmt.Println(eng.ArticulationPoints())
package aquila

import (
	"io"

	"aquila/internal/graph"
)

// V is a vertex identifier (32-bit).
type V = graph.V

// NoVertex is the "no such vertex" sentinel.
const NoVertex = graph.NoVertex

// Edge is a (source, target) pair for graph construction.
type Edge = graph.Edge

// Directed is an immutable directed graph in CSR form.
type Directed = graph.Directed

// Undirected is an immutable undirected graph in CSR form with per-edge ids.
type Undirected = graph.Undirected

// NewDirected builds a directed graph over n vertices from an edge list.
// Self-loops are dropped and parallel edges deduplicated. Construction runs
// on the parallel CSR builder with GOMAXPROCS workers; use
// NewDirectedThreads to pin the worker count.
func NewDirected(n int, edges []Edge) *Directed { return graph.BuildDirected(n, edges) }

// NewDirectedThreads is NewDirected with an explicit builder worker count
// (< 1 means GOMAXPROCS).
func NewDirectedThreads(n int, edges []Edge, threads int) *Directed {
	return graph.BuildDirectedThreads(n, edges, threads)
}

// NewUndirected builds an undirected graph over n vertices from an edge list.
// Each listed edge is stored in both directions; duplicates collapse.
func NewUndirected(n int, edges []Edge) *Undirected { return graph.BuildUndirected(n, edges) }

// NewUndirectedThreads is NewUndirected with an explicit builder worker count
// (< 1 means GOMAXPROCS).
func NewUndirectedThreads(n int, edges []Edge, threads int) *Undirected {
	return graph.BuildUndirectedThreads(n, edges, threads)
}

// Undirect converts a directed graph to its undirected view (paper §6.1):
// every one-directional edge gains a reverse twin; mutual pairs collapse.
func Undirect(g *Directed) *Undirected { return graph.Undirect(g) }

// ParseEdgeList reads a whitespace-separated "u v" edge list ('#'/'%'
// comment lines allowed) and returns the raw edges plus the implied vertex
// count, without building a graph. Parsing is chunk-parallel. Callers that
// want separate parse/build timing (or a custom builder thread count) use
// this with NewDirectedThreads; LoadEdgeList bundles the two.
func ParseEdgeList(r io.Reader) ([]Edge, int, error) { return graph.ReadEdgeList(r) }

// ParseMatrixMarket reads a MatrixMarket coordinate file and returns the raw
// edges plus vertex count (see LoadMatrixMarket for conventions).
func ParseMatrixMarket(r io.Reader) ([]Edge, int, error) { return graph.ReadMatrixMarket(r) }

// ParseMETIS reads a METIS adjacency file and returns the raw edges (each
// undirected edge appears in both directions) plus vertex count.
func ParseMETIS(r io.Reader) ([]Edge, int, error) { return graph.ReadMETIS(r) }

// LoadEdgeList reads a whitespace-separated "u v" edge list ('#'/'%' comment
// lines allowed) and returns the directed graph it describes.
func LoadEdgeList(r io.Reader) (*Directed, error) {
	edges, n, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return graph.BuildDirected(n, edges), nil
}

// LoadUndirectedEdgeList reads an edge list as an undirected graph.
func LoadUndirectedEdgeList(r io.Reader) (*Undirected, error) {
	edges, n, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return graph.BuildUndirected(n, edges), nil
}

// LoadMatrixMarket reads a MatrixMarket coordinate file as a directed graph
// (1-indexed entries become 0-indexed vertices; symmetric matrices are
// mirrored; values are ignored).
func LoadMatrixMarket(r io.Reader) (*Directed, error) {
	edges, n, err := graph.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	return graph.BuildDirected(n, edges), nil
}

// LoadMETIS reads a METIS adjacency file as an undirected graph.
func LoadMETIS(r io.Reader) (*Undirected, error) {
	edges, n, err := graph.ReadMETIS(r)
	if err != nil {
		return nil, err
	}
	return graph.BuildUndirected(n, edges), nil
}

// MaybeGunzip transparently unwraps gzip-compressed streams (detected by
// magic bytes) so loaders accept .gz dumps directly.
func MaybeGunzip(r io.Reader) (io.Reader, error) { return graph.MaybeGunzip(r) }

// Container is a graph loaded from an .aqg v2 container together with the
// resource backing its slices (an mmap'd file or the Go heap). Exactly one of
// its Directed/Undirected fields is non-nil; call Release when done with an
// mmap-backed graph.
type Container = graph.Container

// LoadContainer opens an .aqg v2 container file, mmap-ing it where the
// platform allows so the graph's CSR slices alias the mapping directly —
// zero parse, zero rebuild, O(1) heap allocation. Falls back to the streaming
// ReadContainer elsewhere.
func LoadContainer(path string) (*Container, error) { return graph.LoadContainer(path) }

// ReadContainer deserializes an .aqg v2 container from a stream (pipes,
// gzip-wrapped files, non-mmap hosts). Slices are heap-allocated.
func ReadContainer(r io.Reader) (*Container, error) { return graph.ReadContainer(r) }

// WriteContainer serializes a directed graph as an .aqg v2 container,
// persisting both CSR directions so loading performs no rebuild work.
func WriteContainer(w io.Writer, g *Directed) error { return graph.WriteContainer(w, g) }

// WriteUndirectedContainer serializes an undirected graph as an .aqg v2
// container, persisting the mate/eid indexes alongside the CSR.
func WriteUndirectedContainer(w io.Writer, g *Undirected) error {
	return graph.WriteUndirectedContainer(w, g)
}

// BinaryFormat sniffs the leading bytes of a graph file: 2 for an .aqg v2
// container, 0 for anything else.
func BinaryFormat(head []byte) int { return graph.BinaryFormat(head) }
