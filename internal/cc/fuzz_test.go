package cc

// FuzzCCPolicyMatchesOracle decodes the fuzz input as (vertex count, matrix
// cell, thread count, byte-pair edge list), runs Solve with that cell and
// cross-checks the exact min-id canonical labeling against the serial DFS
// oracle. It then reads the same pairs as arcs of a directed graph and
// checks SolveDirected against the serial WCC oracle. Any cell × any graph ×
// any parallelism that diverges from the oracle crashes the fuzzer. The
// policy byte indexes Policies(), so new matrix cells are fuzzed the moment
// they are enumerable.

import (
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

func FuzzCCPolicyMatchesOracle(f *testing.F) {
	f.Add([]byte{8, 0, 1, 0, 1, 1, 2, 2, 3}) // chain, pipeline cell
	f.Add([]byte{16, 11, 4, 0, 1, 5, 9, 9, 5})
	f.Add([]byte{60, 5, 2, 1, 2, 3, 4, 5, 6, 1, 6, 0, 0})
	f.Add([]byte{4, 4, 3, 0, 0, 1, 1, 2, 2, 3, 3}) // self-loops, last cell
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%60 + 4
		cells := Policies()
		pol := cells[int(data[1])%len(cells)]
		p := 1 + int(data[2])%4
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{
				U: graph.V(int(data[i]) % n),
				V: graph.V(int(data[i+1]) % n),
			})
		}
		g := graph.BuildUndirected(n, edges)
		want := serialdfs.CC(g)

		res := Solve(g, pol, Options{Threads: p})
		if err := verify.SamePartition(res.Label, want); err != nil {
			t.Fatalf("cell %v p=%d: partition diverged: %v", pol, p, err)
		}
		for v := range want {
			if res.Label[v] != want[v] {
				t.Fatalf("cell %v p=%d: Label[%d] = %d, want min-id %d", pol, p, v, res.Label[v], want[v])
			}
		}
		if err := verify.CheckCCInvariants(g, res.Label); err != nil {
			t.Fatalf("cell %v p=%d: %v", pol, p, err)
		}

		d := graph.BuildDirected(n, edges)
		wantW := serialdfs.WCC(d)
		resW := SolveDirected(d, pol, Options{Threads: p})
		for v := range wantW {
			if resW.Label[v] != wantW[v] {
				t.Fatalf("cell %v p=%d directed: Label[%d] = %d, want min-id %d", pol, p, v, resW.Label[v], wantW[v])
			}
		}
	})
}
