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

// BenchmarkWCC times a directed graph's weakly connected components the two
// ways a built graph can take them. undirect+solve is graph.Undirect plus
// cc.Solve in the cell auto picks for the undirected view; a built graph
// holds its out-CSR alone, so Undirect transposes it first. arcs is
// cc.SolveDirected in the cell auto picks for the directed graph, a
// union-find over the out-arcs. Every iteration starts from a freshly built
// graph (untimed), so B/op shows the in-CSR and the view the second never
// allocates.
func BenchmarkWCC(b *testing.B) {
	for _, cl := range []struct {
		name string
		d    *graph.Directed
	}{{"social-tail", matrixSocialTail()}, {"rmat", matrixRMAT()}} {
		n := cl.d.NumVertices()
		var arcs []graph.Edge
		for u := 0; u < n; u++ {
			for _, v := range cl.d.Out(graph.V(u)) {
				arcs = append(arcs, graph.Edge{U: graph.V(u), V: v})
			}
		}
		for _, way := range []struct {
			name  string
			pol   cc.Policy
			solve func(*graph.Directed, cc.Policy) *cc.Result
		}{
			{"undirect+solve", cc.ChoosePolicy(stats.CheapUndirected(graph.Undirect(cl.d))),
				func(d *graph.Directed, pol cc.Policy) *cc.Result {
					return cc.Solve(graph.Undirect(d), pol, cc.Options{})
				}},
			{"arcs", cc.ChooseDirectedPolicy(n),
				func(d *graph.Directed, pol cc.Policy) *cc.Result { return cc.SolveDirected(d, pol, cc.Options{}) }},
		} {
			b.Run(fmt.Sprintf("%s/%s/%v", cl.name, way.name, way.pol), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					d := graph.BuildDirected(n, arcs)
					b.StartTimer()
					if way.solve(d, way.pol).NumComponents == 0 {
						b.Fatal("no components")
					}
				}
			})
		}
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
