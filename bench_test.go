package aquila

import (
	"io"
	"runtime"
	"testing"

	"aquila/internal/apps/betweenness"
	"aquila/internal/baseline/boostlike"
	"aquila/internal/baseline/galois"
	"aquila/internal/baseline/graphchi"
	"aquila/internal/baseline/hong"
	"aquila/internal/baseline/ispan"
	"aquila/internal/baseline/ligra"
	"aquila/internal/baseline/multistep"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/baseline/slota"
	"aquila/internal/baseline/xstream"
	"aquila/internal/bench"
	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/dyn"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/spo"
	"aquila/internal/trim"
)

// benchConfig builds a small-scale harness configuration: each table/figure
// bench regenerates its full output once per iteration, so b.N measures the
// cost of the whole experiment at the bench scale.
func benchConfig() *bench.Config {
	return &bench.Config{Scale: 0.2, Runs: 1, Out: io.Discard}
}

// BenchmarkTable1Stats regenerates Table 1 (workload census).
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(benchConfig())
	}
}

// BenchmarkTable2 regenerates Table 2 section by section (runtime of Aquila
// vs. the ten compared systems).
func BenchmarkTable2(b *testing.B) {
	for _, alg := range []string{"CC", "SCC", "BiCC", "BgCC"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Table2(benchConfig(), []string{alg})
			}
		})
	}
}

// BenchmarkFig6Reduction regenerates Figure 6 (workload reduction %).
func BenchmarkFig6Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(benchConfig())
	}
}

// BenchmarkFig8Distribution regenerates Figure 8 (XCC size distributions).
func BenchmarkFig8Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(benchConfig())
	}
}

// BenchmarkFig10Ablation regenerates Figure 10 (technique benefits).
func BenchmarkFig10Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchConfig())
	}
}

// BenchmarkFig11Scalability regenerates Figure 11 (thread-count sweep).
func BenchmarkFig11Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(benchConfig())
	}
}

// BenchmarkFig12SmallXCC regenerates Figure 12 (small-XCC query speedups).
func BenchmarkFig12SmallXCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(benchConfig())
	}
}

// BenchmarkFig13LargestXCC regenerates Figure 13 (largest-XCC speedups).
func BenchmarkFig13LargestXCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(benchConfig())
	}
}

// BenchmarkFig14APBridge regenerates Figure 14 (AP/bridge-only speedups).
func BenchmarkFig14APBridge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig14(benchConfig())
	}
}

// --- micro-benchmarks on the core algorithms over one social workload ---

func benchGraphs() (*graph.Directed, *graph.Undirected) {
	d := gen.Social(gen.SocialConfig{
		GiantVertices: 4000, GiantAvgDeg: 6,
		SmallComps: 150, SmallMaxSize: 6,
		Isolated: 80, MutualFrac: 0.4, Seed: 0xBE,
	})
	return d, graph.Undirect(d)
}

func BenchmarkAquilaCC(b *testing.B) {
	_, u := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Run(u, cc.Options{})
	}
}

func BenchmarkAquilaSCC(b *testing.B) {
	d, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc.Run(d, scc.Options{})
	}
}

func BenchmarkAquilaBiCC(b *testing.B) {
	_, u := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bicc.Run(u, bicc.Options{})
	}
}

func BenchmarkAquilaBgCC(b *testing.B) {
	_, u := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgcc.Run(u, bgcc.Options{})
	}
}

// BenchmarkEnhancedBFSModes isolates the §5.3 traversal enhancements.
func BenchmarkEnhancedBFSModes(b *testing.B) {
	_, u := benchGraphs()
	master := u.MaxDegreeVertex()
	for _, m := range []struct {
		name string
		mode bfs.Mode
	}{{"Plain", bfs.ModePlain}, {"DirOpt", bfs.ModeDirOpt}, {"Enhanced", bfs.ModeEnhanced}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bfs.EnhancedReach(bfs.UndirectedAdj(u), master, nil, bfs.Options{}, m.mode)
			}
		})
	}
}

// BenchmarkTrimPendants isolates the BiCC/BgCC pendant trim.
func BenchmarkTrimPendants(b *testing.B) {
	_, u := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trim.Pendants(u)
	}
}

// BenchmarkSPOCompute isolates the single-parent-only flag computation.
func BenchmarkSPOCompute(b *testing.B) {
	_, u := benchGraphs()
	tree := bfs.NewTree(u.NumVertices())
	tree.RunForest(u, u.MaxDegreeVertex(), nil, bfs.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spo.Compute(u, tree.Level, tree.Parent, nil, 0)
	}
}

// BenchmarkBaselines gives each comparator system its own bench over the
// shared social workload, one sub-bench per Table 2 method.
func BenchmarkBaselines(b *testing.B) {
	d, u := benchGraphs()
	b.Run("CC/DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialdfs.CC(u)
		}
	})
	b.Run("CC/Boost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boostlike.CC(u)
		}
	})
	b.Run("CC/XStream", func(b *testing.B) {
		e := xstream.New(d, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CC()
		}
	})
	b.Run("CC/GaloisAsync", func(b *testing.B) {
		e := galois.New(u, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CCAsync()
		}
	})
	b.Run("CC/GraphChiUF", func(b *testing.B) {
		e := graphchi.New(d, 0, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CCUnionFind()
		}
	})
	b.Run("CC/LigraLP", func(b *testing.B) {
		f := ligra.New(u, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.CCLabelProp()
		}
	})
	b.Run("CC/Multistep", func(b *testing.B) {
		e := multistep.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.CC(u)
		}
	})
	b.Run("SCC/DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialdfs.SCC(d)
		}
	})
	b.Run("SCC/Hong", func(b *testing.B) {
		e := hong.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SCC(d)
		}
	})
	b.Run("SCC/iSpan", func(b *testing.B) {
		e := ispan.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SCC(d)
		}
	})
	b.Run("BiCC/DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialdfs.BiCC(u)
		}
	})
	b.Run("BiCC/SlotaBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			slota.BiCCBFS(u, 0)
		}
	})
	b.Run("BiCC/SlotaLP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			slota.BiCCLP(u, 0)
		}
	})
}

// BenchmarkBetweenness compares the three exact BC strategies on a smaller
// workload (BC is quadratic-ish; the full bench graph would dominate the run).
func BenchmarkBetweenness(b *testing.B) {
	d := gen.Social(gen.SocialConfig{
		GiantVertices: 800, GiantAvgDeg: 4,
		SmallComps: 40, SmallMaxSize: 10,
		Isolated: 20, MutualFrac: 0.4, Seed: 0xBC2,
	})
	u := graph.Undirect(d)
	for _, v := range []struct {
		name string
		fn   func() []float64
	}{
		{"Brandes", func() []float64 { return betweenness.Brandes(u, 0) }},
		{"Reduced", func() []float64 { return betweenness.Reduced(u, 0) }},
		{"Decomposed", func() []float64 { return betweenness.Decomposed(u, 0) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.fn()
			}
		})
	}
}

// BenchmarkIncrementalApply compares absorbing 1%-sized edge batches through
// the incremental union-find layer (Engine.Apply + O(1) CountCC) against the
// static alternative of rebuilding the CSR graph and rerunning cc.Run after
// every batch. Same 20k-vertex workload, same batches.
func BenchmarkIncrementalApply(b *testing.B) {
	const (
		n          = 20000
		m          = 100000
		batchSize  = 1000 // 1% of the base edge count
		numBatches = 10
	)
	base := gen.RandomUndirected(n, m, 0xA101)
	eps := base.EdgeEndpoints()
	baseEdges := make([]Edge, len(eps))
	for i, ep := range eps {
		baseEdges[i] = Edge{U: ep[0], V: ep[1]}
	}
	rng := gen.NewRNG(0x1234)
	batches := make([][]Edge, numBatches)
	for k := range batches {
		batch := make([]Edge, batchSize)
		for i := range batch {
			batch[i] = Edge{U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))}
		}
		batches[k] = batch
	}

	b.Run("EngineApply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := NewEngine(base, Options{Threads: 4, RebuildThreshold: -1})
			e.CC() // static seed decomposition, outside the timer
			b.StartTimer()
			for _, batch := range batches {
				if _, err := e.Apply(batch); err != nil {
					b.Fatal(err)
				}
				e.CountCC()
			}
		}
	})
	b.Run("StaticRecompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edges := append([]Edge(nil), baseEdges...)
			for _, batch := range batches {
				edges = append(edges, batch...)
				g := graph.BuildUndirected(n, edges)
				cc.Run(g, cc.Options{Threads: 4})
			}
		}
	})
}

// BenchmarkDynamicApply measures the cut-vs-rebuild crossover of the fully
// dynamic layer: churn batches (each deleting live edges and inserting
// replacements) absorbed by the Euler-tour forest via ApplyUpdates +
// O(1)-ish CountCC, against statically rebuilding the CSR and rerunning
// cc.Run after every batch. Small batches are the forest's home turf
// (polylog per op); as the batch grows toward a constant fraction of the
// graph, the one-shot static recompute amortizes and the curves cross.
func BenchmarkDynamicApply(b *testing.B) {
	const (
		n = 20000
		m = 100000
	)
	base := gen.RandomUndirected(n, m, 0xA101)
	eps := base.EdgeEndpoints()
	baseEdges := make([]Edge, len(eps))
	for i, ep := range eps {
		baseEdges[i] = Edge{U: ep[0], V: ep[1]}
	}
	// Churn batches: delete distinct base edges, insert fresh random ones.
	mkBatches := func(batchSize, numBatches int) [][]Update {
		rng := gen.NewRNG(0xD15C)
		perm := rng.Perm(len(baseEdges))
		batches := make([][]Update, numBatches)
		di := 0
		for k := range batches {
			batch := make([]Update, 0, batchSize)
			for i := 0; i < batchSize/2; i++ {
				e := baseEdges[perm[di%len(perm)]]
				di++
				batch = append(batch, Delete(e.U, e.V))
			}
			for i := 0; i < batchSize/2; i++ {
				batch = append(batch, Insert(graph.V(rng.Intn(n)), graph.V(rng.Intn(n))))
			}
			batches[k] = batch
		}
		return batches
	}
	// Promote builds the forest from the base graph as promotion does
	// (presized, one Link per edge), churns it with the batch100 schedule's
	// cuts and links, and reports the live heap the forest then holds per
	// live edge.
	b.Run("Promote", func(b *testing.B) {
		off, adj := base.CSR()
		perm := gen.NewRNG(0xD15C).Perm(len(baseEdges))
		var perEdge float64
		for i := 0; i < b.N; i++ {
			rng := gen.NewRNG(0xD15C)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f := dyn.NewForestSized(n, int(base.NumEdges()))
			for u := 0; u < n; u++ {
				for _, v := range adj[off[u]:off[u+1]] {
					if graph.V(u) < v {
						f.Link(graph.V(u), v)
					}
				}
			}
			for k := 0; k < 20*50; k++ {
				e := baseEdges[perm[k]]
				f.Cut(e.U, e.V)
				f.Link(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			perEdge = float64(after.HeapAlloc-before.HeapAlloc) / float64(f.NumEdges())
			runtime.KeepAlive(f)
			b.StartTimer()
		}
		b.ReportMetric(perEdge, "B/edge")
	})
	for _, size := range []struct {
		name       string
		batchSize  int
		numBatches int
	}{
		{"batch100", 100, 20},
		{"batch2000", 2000, 5},
	} {
		batches := mkBatches(size.batchSize, size.numBatches)
		b.Run("DynamicUpdates/"+size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(base, Options{Threads: 4, RebuildThreshold: -1})
				// Promote outside the timer: steady-state dynamic service.
				if _, err := e.ApplyUpdates([]Update{Delete(baseEdges[0].U, baseEdges[0].V), Insert(baseEdges[0].U, baseEdges[0].V)}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range batches {
					if _, err := e.ApplyUpdates(batch); err != nil {
						b.Fatal(err)
					}
					e.CountCC()
				}
			}
		})
		b.Run("ServerUpdates/"+size.name, func(b *testing.B) {
			// The same batches through a Server, so every batch also
			// publishes an epoch: the O(batch) dynamic publish, B/op
			// included.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewServer(NewEngine(base, Options{Threads: 4, RebuildThreshold: -1}), ServerConfig{})
				if _, err := s.ApplyUpdates([]Update{Delete(baseEdges[0].U, baseEdges[0].V), Insert(baseEdges[0].U, baseEdges[0].V)}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range batches {
					if _, err := s.ApplyUpdates(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("StaticRecompute/"+size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				live := make(map[[2]graph.V]struct{}, len(baseEdges))
				for _, e := range baseEdges {
					live[[2]graph.V{e.U, e.V}] = struct{}{}
				}
				for _, batch := range batches {
					for _, up := range batch {
						u, v := up.U, up.V
						if u == v {
							continue
						}
						if u > v {
							u, v = v, u
						}
						if up.Op == OpInsert {
							live[[2]graph.V{u, v}] = struct{}{}
						} else {
							delete(live, [2]graph.V{u, v})
						}
					}
					edges := make([]Edge, 0, len(live))
					for k := range live {
						edges = append(edges, Edge{U: k[0], V: k[1]})
					}
					g := graph.BuildUndirected(n, edges)
					cc.Run(g, cc.Options{Threads: 4})
				}
			}
		})
	}
}

// BenchmarkEngineQueries measures the partial-query fast paths end to end.
func BenchmarkEngineQueries(b *testing.B) {
	d, _ := benchGraphs()
	b.Run("IsConnected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDirectedEngine(d, Options{}).IsConnected()
		}
	})
	b.Run("LargestCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDirectedEngine(d, Options{}).LargestCC()
		}
	})
	b.Run("ArticulationPoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDirectedEngine(d, Options{}).ArticulationPoints()
		}
	})
}
