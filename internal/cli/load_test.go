package cli

import (
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"aquila"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// writeVia writes g to path through write, fataling on any error.
func writeVia(t *testing.T, path string, g *aquila.Directed, write func(f *os.File) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDirectedFormatParity is the regression test for the "aquila-gen bin
// files unreadable by other commands" bug: the same graph persisted as a text
// edge list, an .aqg v2 container, and a gzip-wrapped container must load
// through LoadDirected and answer every query class identically, at one and
// two loader threads. A dump in the retired v1 binary layout (magic, vertex
// count, arc count, out-CSR) is no format at all: it must be refused.
func TestLoadDirectedFormatParity(t *testing.T) {
	// Anchor the highest vertex id with an edge: a plain edge list cannot
	// represent trailing isolated vertices, and parity needs all three files
	// to describe the same graph.
	edges, n := gen.RMATEdges(10, 16, 7)
	edges = append(edges, graph.Edge{U: graph.V(n - 1), V: 0})
	g := aquila.NewDirectedThreads(n, edges, 0)
	dir := t.TempDir()

	txt := filepath.Join(dir, "g.txt")
	writeVia(t, txt, g, func(f *os.File) error { return graph.WriteEdgeList(f, g) })
	v1 := filepath.Join(dir, "g.bin")
	writeVia(t, v1, g, func(f *os.File) error {
		off, adj := g.OutCSR()
		for _, section := range []any{[]int64{0x41515543, int64(n), int64(len(adj))}, off, adj} {
			if err := binary.Write(f, binary.LittleEndian, section); err != nil {
				return err
			}
		}
		return nil
	})
	aqg := filepath.Join(dir, "g.aqg")
	writeVia(t, aqg, g, func(f *os.File) error { return aquila.WriteContainer(f, g) })
	aqgz := filepath.Join(dir, "g.aqg.gz")
	writeVia(t, aqgz, g, func(f *os.File) error {
		zw := gzip.NewWriter(f)
		if err := aquila.WriteContainer(zw, g); err != nil {
			return err
		}
		return zw.Close()
	})

	queries := []string{"num-cc", "num-scc", "num-bicc", "num-bgcc", "largest-cc", "connected"}
	want := make(map[string]string, len(queries))
	{
		eng := aquila.NewDirectedEngine(g, aquila.Options{})
		for _, q := range queries {
			out, err := Answer(eng, q)
			if err != nil {
				t.Fatalf("%s on in-memory graph: %v", q, err)
			}
			want[q] = out
		}
	}

	for _, threads := range []int{1, 2} {
		if lg, err := LoadDirected(v1, threads); err == nil || lg != nil {
			t.Fatalf("LoadDirected(v1 dump, %d) = %v, %v; want an error and no graph", threads, lg, err)
		}
		for _, path := range []string{txt, aqg, aqgz} {
			lg, err := LoadDirected(path, threads)
			if err != nil {
				t.Fatalf("LoadDirected(%s, %d): %v", path, threads, err)
			}
			if lg.Graph.NumVertices() != g.NumVertices() || lg.Graph.NumArcs() != g.NumArcs() {
				t.Fatalf("%s threads=%d: loaded %d/%d, want %d/%d", path, threads,
					lg.Graph.NumVertices(), lg.Graph.NumArcs(), g.NumVertices(), g.NumArcs())
			}
			eng := aquila.NewDirectedEngine(lg.Graph, aquila.Options{})
			for _, q := range queries {
				out, err := Answer(eng, q)
				if err != nil {
					t.Fatalf("%s from %s threads=%d: %v", q, path, threads, err)
				}
				if out != want[q] {
					t.Errorf("%s from %s threads=%d: got %q, want %q", q, path, threads, out, want[q])
				}
			}
			if err := lg.Release(); err != nil {
				t.Fatalf("Release after %s: %v", path, err)
			}
		}
	}
}

// TestLoadDirectedMmapsContainers checks the zero-copy path actually engages
// for raw .aqg files on platforms that support it, and only there.
func TestLoadDirectedMmapsContainers(t *testing.T) {
	g := gen.RMAT(8, 8, 3)
	dir := t.TempDir()
	aqg := filepath.Join(dir, "g.aqg")
	writeVia(t, aqg, g, func(f *os.File) error { return aquila.WriteContainer(f, g) })
	txt := filepath.Join(dir, "g.txt")
	writeVia(t, txt, g, func(f *os.File) error { return graph.WriteEdgeList(f, g) })

	lg, err := LoadDirected(aqg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Container != nil && !lg.Container.Mapped() {
		t.Error("LoadedGraph.Container kept for a heap-backed load")
	}
	lg.Release()

	lt, err := LoadDirected(txt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Container != nil {
		t.Error("text load reported a backing container")
	}
	lt.Release()
}

// TestLoadDirectedRejectsUndirectedContainer pins the error message for
// feeding an undirected checkpoint to a directed-graph command.
func TestLoadDirectedRejectsUndirectedContainer(t *testing.T) {
	u := graph.BuildUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	path := filepath.Join(t.TempDir(), "u.aqg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteUndirectedContainer(f, u); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadDirected(path, 0); err == nil {
		t.Fatal("undirected container accepted as a directed graph")
	}
}
