package bench

// Binary-container ingestion benchmarks (the PR 10 .aqg v2 format). The four
// sub-benchmarks load the same ~1M-edge R-MAT graph through every ingestion
// path so BENCH_PR10.json captures the whole ladder: mmap'd container load,
// streamed container read, legacy v1 binary read, and text parse + CSR build.
// The acceptance bar is mmap >= 10x faster than text parse+build.

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aquila/internal/graph"
)

var containerBenchOnce struct {
	sync.Once
	aqg  []byte // the benchmark graph as an .aqg v2 container
	v1   []byte // the same graph as a legacy v1 binary
	path string // the container written to disk, for the mmap path
	err  error
}

func containerBenchInput(b *testing.B) (aqg, v1 []byte, path string) {
	b.Helper()
	edges, n := buildBenchInput(b)
	containerBenchOnce.Do(func() {
		g := graph.BuildDirected(n, edges)
		var buf bytes.Buffer
		if containerBenchOnce.err = graph.WriteContainer(&buf, g); containerBenchOnce.err != nil {
			return
		}
		containerBenchOnce.aqg = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if containerBenchOnce.err = graph.WriteBinary(&buf, g); containerBenchOnce.err != nil {
			return
		}
		containerBenchOnce.v1 = append([]byte(nil), buf.Bytes()...)
		// The mmap path needs a real file; park it alongside the build
		// products rather than a t.TempDir so every sub-benchmark reuses it.
		f, err := os.CreateTemp("", "aquila-bench-*.aqg")
		if err != nil {
			containerBenchOnce.err = err
			return
		}
		if _, err := f.Write(containerBenchOnce.aqg); err != nil {
			containerBenchOnce.err = err
			f.Close()
			return
		}
		if err := f.Close(); err != nil {
			containerBenchOnce.err = err
			return
		}
		containerBenchOnce.path = f.Name()
	})
	if containerBenchOnce.err != nil {
		b.Fatal(containerBenchOnce.err)
	}
	return containerBenchOnce.aqg, containerBenchOnce.v1, containerBenchOnce.path
}

// BenchmarkContainerLoad is the ingestion ladder on the ~1M-edge benchmark
// graph: every sub-benchmark ends with a queryable *graph.Directed. The mmap
// path also reports resident-KiB, the bytes of the mapping the process holds
// once a load returns, where the host reports it (Linux).
func BenchmarkContainerLoad(b *testing.B) {
	edges, _ := buildBenchInput(b)
	aqg, v1, path := containerBenchInput(b)
	text := buildBenchOnce.text

	b.Run("mmap", func(b *testing.B) {
		b.SetBytes(int64(len(aqg)))
		var resident int64
		var reported bool
		for i := 0; i < b.N; i++ {
			c, err := graph.LoadContainer(path)
			if err != nil {
				b.Fatal(err)
			}
			if c.Directed == nil {
				b.Fatal("no directed graph in container")
			}
			if i == b.N-1 {
				b.StopTimer()
				resident, reported = c.Resident()
				b.StartTimer()
			}
			c.Release()
		}
		reportEdgesPerSec(b, len(edges))
		if reported {
			b.ReportMetric(float64(resident)/1024, "resident-KiB")
		}
	})
	b.Run("stream-v2", func(b *testing.B) {
		b.SetBytes(int64(len(aqg)))
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadContainer(bytes.NewReader(aqg)); err != nil {
				b.Fatal(err)
			}
		}
		reportEdgesPerSec(b, len(edges))
	})
	b.Run("legacy-v1", func(b *testing.B) {
		b.SetBytes(int64(len(v1)))
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadBinary(bytes.NewReader(v1)); err != nil {
				b.Fatal(err)
			}
		}
		reportEdgesPerSec(b, len(edges))
	})
	b.Run("text-parse-build", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			es, n, err := graph.ParseEdgeListBytes(text, 0)
			if err != nil {
				b.Fatal(err)
			}
			graph.BuildDirected(n, es)
		}
		reportEdgesPerSec(b, len(edges))
	})
}

// BenchmarkContainerWrite measures serialization, v2 container vs legacy v1.
func BenchmarkContainerWrite(b *testing.B) {
	edges, n := buildBenchInput(b)
	g := graph.BuildDirected(n, edges)
	b.Run("aqg-v2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Create(filepath.Join(b.TempDir(), "g.aqg"))
			if err != nil {
				b.Fatal(err)
			}
			if err := graph.WriteContainer(f, g); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
		reportEdgesPerSec(b, len(edges))
	})
	b.Run("legacy-v1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Create(filepath.Join(b.TempDir(), "g.bin"))
			if err != nil {
				b.Fatal(err)
			}
			if err := graph.WriteBinary(f, g); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
		reportEdgesPerSec(b, len(edges))
	})
}
