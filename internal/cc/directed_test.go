package cc

// The directed WCC entry: SolveDirected runs the union-find cells on a
// directed graph's out-CSR alone and must give exactly the labels and census
// Solve gives on graph.Undirect of the same graph, at every thread count,
// scanning every row and never building the in-CSR or the undirected view.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"aquila/internal/gen"
	"aquila/internal/graph"
)

// directedSuite is the matrix suite's classes as directed graphs, with the
// social class at mutual fractions 0, 0.5 and 1, plus a DAG.
func directedSuite() map[string]*graph.Directed {
	social := func(mutual float64, seed uint64) *graph.Directed {
		return gen.Social(gen.SocialConfig{GiantVertices: 700, GiantAvgDeg: 5, SmallComps: 35,
			SmallMaxSize: 6, Isolated: 30, MutualFrac: mutual, Seed: seed})
	}
	rng := gen.NewRNG(17)
	var dag []graph.Edge
	for i := 0; i < 1500; i++ {
		u, v := rng.Intn(600), rng.Intn(600)
		dag = append(dag, graph.Edge{U: graph.V(min(u, v)), V: graph.V(max(u, v))})
	}
	star := make([]graph.Edge, 0, 63)
	path := make([]graph.Edge, 0, 96)
	for v := 1; v < 97; v++ {
		if v < 64 {
			star = append(star, graph.Edge{U: 0, V: graph.V(v)})
		}
		path = append(path, graph.Edge{U: graph.V(v - 1), V: graph.V(v)})
	}
	// outward is a giant component — a core where vertex i has arcs to
	// i+1, i+2 and i+3 — whose every boundary arc points out of it, to a
	// satellite. Satellites' ids follow the core's, so Afforest's first two
	// rounds stay inside the core, and a satellite's only arc is stored in
	// its core vertex's out-row: a finish that skipped the provisional
	// largest component's rows would leave the satellites alone.
	const core, sats = 1500, 700
	var outward []graph.Edge
	for i := 0; i < core; i++ {
		for d := 1; d <= 3; d++ {
			outward = append(outward, graph.Edge{U: graph.V(i), V: graph.V((i + d) % core)})
		}
	}
	for s := 0; s < sats; s++ {
		outward = append(outward, graph.Edge{U: graph.V(s * 2 % core), V: graph.V(core + s)})
	}
	return map[string]*graph.Directed{
		"outward":       graph.BuildDirected(core+sats, outward),
		"mutual-0":      social(0, 21),
		"mutual-0.5":    social(0.5, 22),
		"mutual-1":      social(1, 23),
		"dag":           graph.BuildDirected(600, dag),
		"rings":         directedCyclic(300, 7),
		"sparse-random": gen.Random(500, 520, 11),
		"star":          graph.BuildDirected(64, star),
		"path":          graph.BuildDirected(97, path),
		"all-isolated":  graph.BuildDirected(50, nil),
		"empty":         graph.BuildDirected(0, nil),
	}
}

// unionFindCells lists the cells SolveDirected runs on the directed CSRs.
func unionFindCells() []Policy {
	var out []Policy
	for _, pol := range Policies() {
		if pol.UnionFind() {
			out = append(out, pol)
		}
	}
	return out
}

// unionFindRows is the union-find rows of matrixRows: the kept union-find
// cells, then the retired k-out ones. BFS sampling walked undirected
// adjacency, so its cells never ran on the directed CSRs.
func unionFindRows(t *testing.T) []matrixRow {
	var out []matrixRow
	for _, row := range matrixRows(t) {
		if row.pol.UnionFind() && !strings.HasPrefix(row.name, "bfs+") {
			out = append(out, row)
		}
	}
	return out
}

func TestUnionFindCells(t *testing.T) {
	var names []string
	for _, pol := range unionFindCells() {
		names = append(names, pol.String())
	}
	want := []string{"none+uf-async", "none+uf-rem", "afforest+uf-async", "afforest+uf-rem"}
	if !slices.Equal(names, want) {
		t.Fatalf("union-find cells = %v, want %v", names, want)
	}
}

// TestSolveDirectedMatchesUndirect is the differential check of the WCC
// entry against Solve on the undirected view, per union-find row of
// matrixRows, per thread count, per class. The out-CSR stores each edge at
// one endpoint only, so the finish must scan every row.
func TestSolveDirectedMatchesUndirect(t *testing.T) {
	twins := directedSuite() // undirected apart, so the tested graphs keep no in-CSR
	for name, d := range directedSuite() {
		u := graph.Undirect(twins[name])
		for _, row := range unionFindRows(t) {
			pol := row.pol
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, row.name, p), func(t *testing.T) {
					want := Solve(u, pol, Options{Threads: p})
					got := SolveDirected(d, pol, Options{Threads: p})
					if !slices.Equal(got.Label, want.Label) {
						t.Fatal("labels differ from Solve on the undirected view")
					}
					if got.NumComponents != want.NumComponents || got.LargestLabel != want.LargestLabel ||
						got.LargestSize != want.LargestSize || !maps.Equal(got.Sizes, want.Sizes) {
						t.Fatalf("census (%d, %d:%d, %d sizes), want (%d, %d:%d, %d sizes)",
							got.NumComponents, got.LargestLabel, got.LargestSize, len(got.Sizes),
							want.NumComponents, want.LargestLabel, want.LargestSize, len(want.Sizes))
					}
					if got.Policy != pol {
						t.Fatalf("Policy = %v, want %v", got.Policy, pol)
					}
					if got.Stats.FinishRows != d.NumVertices() {
						t.Fatalf("finish scanned %d rows of %d", got.Stats.FinishRows, d.NumVertices())
					}
				})
			}
		}
		if d.UndirectedBuilt() || d.InBuilt() {
			t.Errorf("%s: a union-find cell built the undirected view or the in-CSR", name)
		}
	}
}

// TestSolveDirectedOtherCells: the cells that traverse undirected adjacency
// run on the graph's undirected view, which the first of them builds.
func TestSolveDirectedOtherCells(t *testing.T) {
	d := directedSuite()["mutual-0.5"]
	want := Solve(graph.Undirect(d), PolicyPipeline, Options{Threads: 2})
	for _, pol := range Policies() {
		if pol.UnionFind() {
			continue
		}
		got := SolveDirected(d, pol, Options{Threads: 2})
		if !slices.Equal(got.Label, want.Label) || got.Policy != pol {
			t.Fatalf("%v: labels or policy differ from the pipeline on the view", pol)
		}
	}
	if !d.UndirectedBuilt() {
		t.Fatal("traversal cells ran without the undirected view")
	}
	if got := SolveDirected(d, Policy{Finish: Finish(99)}, Options{}); got.Policy != PolicyPipeline {
		t.Fatalf("invalid policy ran as %v, want the pipeline", got.Policy)
	}
}
