package cc

// The directed WCC entry: SolveDirected runs the union-find cells on a
// directed graph's out- and in-CSRs and must give exactly what Solve gives
// on graph.Undirect of the same graph — the labels and census at every
// thread count, and the work counters too at one thread, where the schedule
// is deterministic — without ever building the undirected view.

import (
	"fmt"
	"maps"
	"slices"
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
	return map[string]*graph.Directed{
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

func TestUnionFindCells(t *testing.T) {
	var names []string
	for _, pol := range unionFindCells() {
		names = append(names, pol.String())
	}
	want := []string{"none+uf-async", "none+uf-rem", "kout+uf-async", "kout+uf-rem", "afforest+uf-async", "afforest+uf-rem"}
	if !slices.Equal(names, want) {
		t.Fatalf("union-find cells = %v, want %v", names, want)
	}
}

// TestSolveDirectedMatchesUndirect is the differential check of the WCC
// entry against Solve on the undirected view, per union-find cell, per
// thread count, per class.
func TestSolveDirectedMatchesUndirect(t *testing.T) {
	for name, d := range directedSuite() {
		u := graph.Undirect(d)
		for _, pol := range unionFindCells() {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%v/p=%d", name, pol, p), func(t *testing.T) {
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
					// One worker runs the same unions in the same order, so
					// the work counters agree exactly.
					if p == 1 && got.Stats != want.Stats {
						t.Fatalf("Stats = %+v, want %+v", got.Stats, want.Stats)
					}
				})
			}
		}
		if d.UndirectedBuilt() {
			t.Errorf("%s: a union-find cell built the undirected view", name)
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
