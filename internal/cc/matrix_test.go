package cc

// The matrix differential harness: every Sampling × Finish cell, at every
// thread count, over every graph class, must reproduce the serial-DFS
// oracle's partition exactly — the same discipline the incremental layer
// (PR 1) and the serving harness (PR 4) established. Cells are enumerated
// through Policies(), so a new matrix axis value is covered the moment it
// exists.

import (
	"bytes"
	"fmt"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

// directedCyclicUndirected builds the undirected view of a directed graph of
// rings joined by random chords (the serving harness's "directed-cyclic"
// class): rich component structure with no dominant hub.
func directedCyclicUndirected(n int, seed uint64) *graph.Undirected {
	return graph.Undirect(directedCyclic(n, seed))
}

// directedCyclic is the directed graph behind directedCyclicUndirected.
func directedCyclic(n int, seed uint64) *graph.Directed {
	rng := gen.NewRNG(seed)
	var edges []graph.Edge
	for start := 0; start < n; {
		size := 3 + rng.Intn(8)
		if start+size > n {
			size = n - start
		}
		for i := 0; i < size; i++ {
			edges = append(edges, graph.Edge{
				U: graph.V(start + i),
				V: graph.V(start + (i+1)%size),
			})
		}
		start += size + rng.Intn(3) // occasional gap: isolated vertices
	}
	for i := 0; i < n/3; i++ {
		edges = append(edges, graph.Edge{
			U: graph.V(rng.Intn(n)),
			V: graph.V(rng.Intn(n)),
		})
	}
	return graph.BuildDirected(n, edges)
}

// matrixSuite is the graph-class table the matrix harness sweeps: the same
// shapes the incremental and serving harnesses use, plus the degenerate
// classes every cell must survive.
func matrixSuite() map[string]*graph.Undirected {
	return map[string]*graph.Undirected{
		"sparse-random":   gen.RandomUndirected(500, 520, 11), // avg degree ~2: fragmented
		"social-tail":     graph.Undirect(gen.Social(gen.SocialConfig{GiantVertices: 700, GiantAvgDeg: 5, SmallComps: 35, SmallMaxSize: 6, Isolated: 30, MutualFrac: 0.3, Seed: 13})),
		"directed-cyclic": directedCyclicUndirected(300, 7),
		"star":            gen.Star(64),
		"path":            gen.Path(97),
		"all-isolated":    graph.BuildUndirected(50, nil),
		"empty":           graph.BuildUndirected(0, nil),
	}
}

// retiredCells are the cells the matrix dropped because no graph class ever
// found them fastest. The harnesses keep each one's rows under its old
// name, so a subtest name keeps naming the same graph, thread count and
// job across versions; the row runs the kept cell that took the job over.
// A union-find finish stays behind Afforest sampling; the hybrid-BFS and
// label-propagation finishes live on only in the pipeline, as its
// giant-component BFS and its min-label sweep.
var retiredCells = []struct {
	spec string
	pol  Policy
}{
	{"kout+hybrid-bfs", PolicyPipeline},
	{"kout+labelprop", PolicyPipeline},
	{"kout+uf-async", Policy{Sampling: SampleAfforest, Finish: FinishUFAsync}},
	{"kout+uf-rem", Policy{Sampling: SampleAfforest, Finish: FinishUFRem}},
	{"bfs+hybrid-bfs", PolicyPipeline},
	{"bfs+labelprop", PolicyPipeline},
	{"bfs+uf-async", Policy{Sampling: SampleAfforest, Finish: FinishUFAsync}},
	{"bfs+uf-rem", Policy{Sampling: SampleAfforest, Finish: FinishUFRem}},
	{"none+labelprop", PolicyPipeline},
	{"afforest+hybrid-bfs", PolicyPipeline},
	{"afforest+labelprop", PolicyPipeline},
}

// matrixRow is one row of a matrix harness: the subtest name and the cell
// it runs.
type matrixRow struct {
	name string
	pol  Policy
}

// matrixRows is every cell of Policies() under its own name, then every
// retired cell under its old name. A retired spec that ParsePolicy accepts
// fails t: it would name a cell again.
func matrixRows(t *testing.T) []matrixRow {
	var out []matrixRow
	for _, pol := range Policies() {
		out = append(out, matrixRow{pol.String(), pol})
	}
	for _, r := range retiredCells {
		if _, err := ParsePolicy(r.spec); err == nil {
			t.Fatalf("ParsePolicy accepts the retired spec %q", r.spec)
		}
		out = append(out, matrixRow{r.spec, r.pol})
	}
	return out
}

// TestMatrixMatchesOracle is the oracle-checked matrix harness: every row of
// matrixRows × p ∈ {1, 4} × graph class, asserting canonical-label equality
// against the serialdfs oracle via verify.Canonical, plus the structural CC
// invariants and the exact min-id canonical form the incremental layer seeds
// from.
func TestMatrixMatchesOracle(t *testing.T) {
	for name, g := range matrixSuite() {
		want := serialdfs.CC(g)
		wantCanon := verify.Canonical(want)
		for _, row := range matrixRows(t) {
			pol := row.pol
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, row.name, p), func(t *testing.T) {
					res := Solve(g, pol, Options{Threads: p})
					if got := verify.Canonical(res.Label); !bytes.Equal(bytesOf(got), bytesOf(wantCanon)) {
						err := verify.SamePartition(res.Label, want)
						t.Fatalf("canonical labels diverge from oracle: %v", err)
					}
					if err := verify.CheckCCInvariants(g, res.Label); err != nil {
						t.Fatalf("invariants: %v", err)
					}
					// Every cell must produce min-id canonical labels — the
					// form inc.FromLabels requires — not just the partition.
					for v := range want {
						if res.Label[v] != want[v] {
							t.Fatalf("Label[%d] = %d, want min-id %d", v, res.Label[v], want[v])
						}
					}
					if res.Policy != pol {
						t.Fatalf("Result.Policy = %v, want %v", res.Policy, pol)
					}
				})
			}
		}
	}
}

// bytesOf views a label slice as raw bytes for exact comparison.
func bytesOf(labels []uint32) []byte {
	out := make([]byte, 0, 4*len(labels))
	for _, l := range labels {
		out = append(out, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return out
}

// TestMatrixCensusAgrees cross-checks the census fields of every cell
// against the pipeline's on a multi-component graph: same component count,
// same largest size, same size histogram.
func TestMatrixCensusAgrees(t *testing.T) {
	g := matrixSuite()["social-tail"]
	want := Run(g, Options{Threads: 2})
	for _, pol := range Policies() {
		res := Solve(g, pol, Options{Threads: 4})
		if res.NumComponents != want.NumComponents {
			t.Errorf("%v: NumComponents = %d, want %d", pol, res.NumComponents, want.NumComponents)
		}
		if res.LargestSize != want.LargestSize || res.LargestLabel != want.LargestLabel {
			t.Errorf("%v: largest = (%d,%d), want (%d,%d)", pol,
				res.LargestLabel, res.LargestSize, want.LargestLabel, want.LargestSize)
		}
		if len(res.Sizes) != len(want.Sizes) {
			t.Errorf("%v: %d distinct sizes, want %d", pol, len(res.Sizes), len(want.Sizes))
		}
		for l, c := range want.Sizes {
			if res.Sizes[l] != c {
				t.Errorf("%v: Sizes[%d] = %d, want %d", pol, l, res.Sizes[l], c)
			}
		}
	}
}

// TestAfforestSkipsRows asserts the point of Afforest sampling: on a
// hub-dominated graph the finish phase must scan strictly fewer rows than
// the vertex count, because the provisional largest component's rows are
// skipped.
func TestAfforestSkipsRows(t *testing.T) {
	g := matrixSuite()["social-tail"]
	n := g.NumVertices()
	res := Solve(g, Policy{Sampling: SampleAfforest, Finish: FinishUFAsync}, Options{Threads: 4})
	if res.Stats.SampleMerges == 0 {
		t.Fatalf("sampling performed no merges")
	}
	if res.Stats.FinishRows >= n {
		t.Fatalf("FinishRows = %d of %d: the provisional largest component was never skipped", res.Stats.FinishRows, n)
	}
	// The skipped mass should be substantial on a giant-component graph.
	if res.Stats.FinishRows > n-res.LargestSize/2 {
		t.Errorf("FinishRows = %d of %d (largest=%d): skip is ineffective", res.Stats.FinishRows, n, res.LargestSize)
	}
}

// TestSolveInvalidPolicyFallsBack: an out-of-range policy degrades to the
// pipeline cell instead of panicking (Solve sits on the serving path).
func TestSolveInvalidPolicyFallsBack(t *testing.T) {
	g := gen.Path(10)
	res := Solve(g, Policy{Sampling: Sampling(250), Finish: Finish(250)}, Options{Threads: 1})
	if res.Policy != PolicyPipeline {
		t.Fatalf("Policy = %v, want pipeline fallback", res.Policy)
	}
	if err := verify.SamePartition(res.Label, serialdfs.CC(g)); err != nil {
		t.Fatal(err)
	}
}
