package bench

// Build-throughput benchmarks (the PR 3 ingestion pipeline). The serial
// builders/parsers are the pinned seed baselines; the parallel variants sweep
// 1..8 workers. Every build/parse benchmark reports edges/s alongside ns/op
// so BENCH_PR3.json captures throughput directly.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aquila/internal/cli"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// buildBenchScale gives a ~1M-edge R-MAT (2^16 vertices × 16): large enough
// that the parallel paths engage and build time dominates noise.
const (
	buildBenchScale  = 16
	buildBenchFactor = 16
)

var buildBenchOnce struct {
	sync.Once
	edges []graph.Edge
	n     int
	text  []byte // the same edges rendered as an edge-list file
}

func buildBenchInput(b *testing.B) ([]graph.Edge, int) {
	b.Helper()
	buildBenchOnce.Do(func() {
		buildBenchOnce.edges, buildBenchOnce.n =
			gen.RMATEdges(buildBenchScale, buildBenchFactor, 1)
		var buf bytes.Buffer
		buf.Grow(16 * len(buildBenchOnce.edges))
		for _, e := range buildBenchOnce.edges {
			fmt.Fprintf(&buf, "%d %d\n", e.U, e.V)
		}
		buildBenchOnce.text = buf.Bytes()
	})
	return buildBenchOnce.edges, buildBenchOnce.n
}

func reportEdgesPerSec(b *testing.B, edges int) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(edges)*float64(b.N)/s, "edges/s")
	}
}

// BenchmarkBuildDirectedSerial is the pinned seed baseline.
func BenchmarkBuildDirectedSerial(b *testing.B) {
	edges, n := buildBenchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildDirectedSerial(n, edges)
	}
	reportEdgesPerSec(b, len(edges))
}

func BenchmarkBuildDirectedParallel(b *testing.B) {
	edges, n := buildBenchInput(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.BuildDirectedThreads(n, edges, p)
			}
			reportEdgesPerSec(b, len(edges))
		})
	}
}

func BenchmarkBuildUndirectedSerial(b *testing.B) {
	edges, n := buildBenchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildUndirectedSerial(n, edges)
	}
	reportEdgesPerSec(b, len(edges))
}

func BenchmarkBuildUndirectedParallel(b *testing.B) {
	edges, n := buildBenchInput(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.BuildUndirectedThreads(n, edges, p)
			}
			reportEdgesPerSec(b, len(edges))
		})
	}
}

// undirectSink keeps BenchmarkUndirect's result live.
var undirectSink *graph.Undirected

// BenchmarkUndirect measures the §6.1 undirected view derived from an
// already-built directed CSR (the engine boot and publish path), in arcs/s.
func BenchmarkUndirect(b *testing.B) {
	edges, n := buildBenchInput(b)
	d := graph.BuildDirected(n, edges)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				undirectSink = graph.UndirectThreads(d, p)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(d.NumArcs())*float64(b.N)/s, "arcs/s")
			}
		})
	}
}

// BenchmarkEdgeIDs measures the first-use build of the dense edge-id index
// (the serial cursor pass) on a fresh undirected view each iteration, in
// ids/s. The Undirect that makes the fresh view is not timed.
func BenchmarkEdgeIDs(b *testing.B) {
	edges, n := buildBenchInput(b)
	d := graph.BuildDirected(n, edges)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		undirectSink = graph.UndirectThreads(d, 0)
		b.StartTimer()
		undirectSink.EdgeIDs()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(undirectSink.NumEdges())*float64(b.N)/s, "ids/s")
	}
}

// BenchmarkParseEdgeListSerial is the pinned line-at-a-time seed parser.
func BenchmarkParseEdgeListSerial(b *testing.B) {
	edges, _ := buildBenchInput(b)
	data := buildBenchOnce.text
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ReadEdgeListSerial(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	reportEdgesPerSec(b, len(edges))
}

func BenchmarkParseEdgeListParallel(b *testing.B) {
	edges, _ := buildBenchInput(b)
	data := buildBenchOnce.text
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, _, err := graph.ParseEdgeListBytes(data, p); err != nil {
					b.Fatal(err)
				}
			}
			reportEdgesPerSec(b, len(edges))
		})
	}
}

// BenchmarkLoadEdgeListFile is the whole text boot path the commands take:
// cli.LoadDirected on the R-MAT edge list written to a file — read, parse,
// build the out-CSR and transpose it — in edges/s.
func BenchmarkLoadEdgeListFile(b *testing.B) {
	edges, _ := buildBenchInput(b)
	path := filepath.Join(b.TempDir(), "g.txt")
	if err := os.WriteFile(path, buildBenchOnce.text, 0o644); err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(buildBenchOnce.text)))
			for i := 0; i < b.N; i++ {
				if _, err := cli.LoadDirected(path, p); err != nil {
					b.Fatal(err)
				}
			}
			reportEdgesPerSec(b, len(edges))
		})
	}
}
