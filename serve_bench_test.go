package aquila

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aquila/internal/gen"
)

// benchServerGraph returns the serving benchmark's base graph and the edge
// tail held back for Apply batches.
func benchServerGraph() (int, []Edge, []Edge) {
	const n = 20000
	full := gen.RandomUndirected(n, 60000, 77)
	eps := full.EdgeEndpoints()
	edges := make([]Edge, len(eps))
	for i, ep := range eps {
		edges[i] = Edge{U: ep[0], V: ep[1]}
	}
	cut := len(edges) - 2048
	return n, edges[:cut], edges[cut:]
}

// BenchmarkServerThroughput measures epoch-fresh decomposition queries under
// concurrent readers. Every iteration advances the epoch by one small Apply
// (invalidating the per-snapshot caches) and then lets all readers demand the
// new epoch's articulation points at once — a query the union-find census
// cannot pre-seed, so it always needs a BiCC kernel pass. With singleflight
// one pass serves the whole storm; with it disabled every reader pays for
// its own. The off rows are the ablation: the gap is the batching win.
func BenchmarkServerThroughput(b *testing.B) {
	n, base, tail := benchServerGraph()
	for _, readers := range []int{1, 4, 8} {
		for _, disable := range []bool{false, true} {
			name := fmt.Sprintf("readers=%d/singleflight=%v", readers, !disable)
			b.Run(name, func(b *testing.B) {
				s := NewServer(NewEngine(NewUndirected(n, base), Options{Threads: 2}),
					ServerConfig{DisableSingleflight: disable, MaxQueue: 1024})
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Apply([]Edge{tail[i%len(tail)]}); err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					for r := 0; r < readers; r++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if _, err := s.ArticulationPoints(ctx); err != nil {
								b.Error(err)
							}
						}()
					}
					wg.Wait()
				}
				b.StopTimer()
				qps := float64(b.N*readers) / b.Elapsed().Seconds()
				b.ReportMetric(qps, "queries/s")
			})
		}
	}
}

// BenchmarkApplyUnderReadLoad measures writer latency while reader goroutines
// continuously hammer point queries on pinned snapshots: Apply must stay
// cheap (copy-on-write capture, no reader barrier), and readers must never
// block it.
func BenchmarkApplyUnderReadLoad(b *testing.B) {
	n, base, tail := benchServerGraph()
	for _, readers := range []int{0, 4} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			s := NewServer(NewEngine(NewUndirected(n, base), Options{Threads: 2}),
				ServerConfig{MaxQueue: 1024})
			ctx := context.Background()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := gen.NewRNG(uint64(r) + 99)
					for !stop.Load() {
						sn := s.Acquire()
						u, v := V(rng.Intn(n)), V(rng.Intn(n))
						if _, err := sn.Connected(ctx, u, v); err != nil {
							b.Error(err)
							return
						}
					}
				}(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply([]Edge{tail[i%len(tail)]}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkServerApplyPublish measures one insert-only Server.Apply, publish
// included, whose 64 random edges merge components of a many-component graph,
// at two graph sizes. A fresh server takes over every 32 batches, outside the
// timer, so every batch keeps merging. The census makes the publish
// O(batch + overlay): ns/op and B/op stay flat in |V| apart from the
// amortized re-bases.
func BenchmarkServerApplyPublish(b *testing.B) {
	const comps, perServer = 1 << 13, 32
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := manyComponents(n, comps)
			rng := gen.NewRNG(uint64(n))
			batch := make([]Edge, 64)
			var s *Server
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perServer == 0 {
					b.StopTimer()
					s = NewServer(NewEngine(g, Options{Threads: 2}), ServerConfig{})
					// An empty batch seeds the incremental layer.
					if _, err := s.Apply(nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for j := range batch {
					batch[j] = Edge{U: V(rng.Intn(n)), V: V(rng.Intn(n))}
				}
				if _, err := s.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
