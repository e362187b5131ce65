package bench

// BenchmarkCCMatrix sweeps every cell of the CC algorithm matrix over the
// graph classes the adaptive chooser discriminates between, plus the auto
// policy itself — the data behind the ChoosePolicy thresholds and the
// EXPERIMENTS.md "PR 6" narrative. BenchmarkWCC runs the directed classes
// through both WCC entries. Sub-benchmark names are class/cell so
// bench2json rows stay self-describing.

import (
	"fmt"
	"testing"

	"aquila/internal/cc"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/stats"
)

// matrixBenchClasses are the benchmark graphs: a hub-skewed social graph
// (Afforest's home turf), a flat sparse random graph, a near-forest, and a
// dense-ish mesh (grid with chords via RMAT at low scale but high degree).
func matrixBenchClasses() []struct {
	name string
	g    *graph.Undirected
} {
	return []struct {
		name string
		g    *graph.Undirected
	}{
		{"social-tail", graph.Undirect(matrixSocialTail())},
		{"sparse-random", gen.RandomUndirected(200000, 400000, 63)},
		{"near-forest", gen.RandomUndirected(200000, 150000, 67)},
		{"rmat", graph.Undirect(matrixRMAT())},
	}
}

// matrixSocialTail and matrixRMAT are the directed graphs behind the
// sweep's social-tail and rmat classes.
func matrixSocialTail() *graph.Directed {
	return gen.Social(gen.SocialConfig{
		GiantVertices: 200000, GiantAvgDeg: 8, SmallComps: 4000,
		SmallMaxSize: 8, Isolated: 2000, MutualFrac: 0.3, Seed: 61,
	})
}

func matrixRMAT() *graph.Directed { return gen.RMAT(16, 16, 69) }

// BenchmarkWCC times a directed graph's weakly connected components two
// ways, in the union-find cell auto picks for it: graph.Undirect plus
// cc.Solve, which builds the undirected CSR first, against cc.SolveDirected,
// which reads the out- and in-CSRs. B/op shows the CSR the second never
// allocates.
func BenchmarkWCC(b *testing.B) {
	for _, cl := range []struct {
		name string
		d    *graph.Directed
	}{{"social-tail", matrixSocialTail()}, {"rmat", matrixRMAT()}} {
		cl := cl
		pol := cc.ChoosePolicy(stats.CheapUndirectedOf(cl.d, 0))
		if !pol.UnionFind() {
			b.Fatalf("%s: auto picked %v, not a union-find cell", cl.name, pol)
		}
		b.Run(fmt.Sprintf("%s/undirect+solve/%v", cl.name, pol), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cc.Solve(graph.Undirect(cl.d), pol, cc.Options{}).NumComponents == 0 {
					b.Fatal("no components")
				}
			}
		})
		b.Run(fmt.Sprintf("%s/directed/%v", cl.name, pol), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cc.SolveDirected(cl.d, pol, cc.Options{}).NumComponents == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

func BenchmarkCCMatrix(b *testing.B) {
	for _, cl := range matrixBenchClasses() {
		cl := cl
		cs := stats.CheapUndirected(cl.g)
		auto := cc.ChoosePolicy(cs)
		for _, pol := range cc.Policies() {
			pol := pol
			b.Run(fmt.Sprintf("%s/%v", cl.name, pol), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := cc.Solve(cl.g, pol, cc.Options{})
					if res.NumComponents == 0 {
						b.Fatal("no components")
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/auto=%v", cl.name, auto), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Auto as deployed: stats + chooser + solve per run.
				pol := cc.ChoosePolicy(stats.CheapUndirected(cl.g))
				res := cc.Solve(cl.g, pol, cc.Options{})
				if res.NumComponents == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}
