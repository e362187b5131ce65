package aquila

import (
	"context"
	"errors"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/cc"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

func TestValidateCCPolicy(t *testing.T) {
	for _, ok := range []string{"", "auto", "pipeline", "afforest+uf-async", "none+hybrid-bfs", "none+uf-rem", "afforest+uf-rem"} {
		if err := ValidateCCPolicy(ok); err != nil {
			t.Errorf("ValidateCCPolicy(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"afforest", "bogus+uf-rem", "afforest+bogus", "auto+auto",
		"kout+uf-rem", "bfs+uf-async", "none+labelprop", "afforest+lp", "afforest+hybrid-bfs"} {
		if err := ValidateCCPolicy(bad); err == nil {
			t.Errorf("ValidateCCPolicy(%q) accepted", bad)
		}
	}
}

// TestEngineCCPolicyCells runs the engine's full CC surface under every
// explicit matrix cell and checks each against the default (auto) engine:
// identical canonical labelings, counts, and largest-component answers. This
// is the engine-level face of the matrix harness's interchangeability claim.
func TestEngineCCPolicyCells(t *testing.T) {
	g := gen.RandomUndirected(2000, 5000, 37)
	want := NewEngine(g, Options{Threads: 2}).CC()
	truth := serialdfs.CC(g)
	for _, pol := range cc.Policies() {
		e := NewEngine(g, Options{Threads: 2, CCPolicy: pol.String()})
		res := e.CC()
		if err := verify.SamePartition(res.Label, truth); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		for v := range want.Label {
			if res.Label[v] != want.Label[v] {
				t.Fatalf("policy %v: Label[%d] = %d, want %d", pol, v, res.Label[v], want.Label[v])
			}
		}
		if res.NumComponents != want.NumComponents || res.LargestSize != want.LargestSize {
			t.Fatalf("policy %v: census (%d,%d), want (%d,%d)", pol,
				res.NumComponents, res.LargestSize, want.NumComponents, want.LargestSize)
		}
		if got := e.CCPolicy(); got != pol.String() {
			t.Fatalf("CCPolicy() = %q, want %q", got, pol)
		}
	}
}

// TestEngineCCPolicyAuto: the default ("" and "auto") resolves through the
// adaptive chooser to a parseable cell, and the decomposition matches the
// oracle either way.
func TestEngineCCPolicyAuto(t *testing.T) {
	g := gen.RandomUndirected(1500, 4000, 39)
	truth := serialdfs.CC(g)
	for _, spec := range []string{"", "auto"} {
		e := NewEngine(g, Options{Threads: 2, CCPolicy: spec})
		if _, err := cc.ParsePolicy(e.CCPolicy()); err != nil {
			t.Fatalf("spec %q: CCPolicy() = %q not parseable: %v", spec, e.CCPolicy(), err)
		}
		if err := verify.SamePartition(e.CC().Label, truth); err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
	}
}

// TestEngineCCPolicyInvalidDegradesToAuto: NewEngine cannot return an error,
// so an unparseable spec (stale config, say) must answer correctly via the
// adaptive fallback rather than panic or wedge.
func TestEngineCCPolicyInvalidDegradesToAuto(t *testing.T) {
	g := gen.RandomUndirected(800, 2000, 41)
	for _, spec := range []string{"not-a-cell", "kout+uf-rem"} {
		e := NewEngine(g, Options{Threads: 2, CCPolicy: spec})
		if err := verify.SamePartition(e.CC().Label, serialdfs.CC(g)); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := cc.ParsePolicy(e.CCPolicy()); err != nil {
			t.Fatalf("%s: fallback CCPolicy() = %q not parseable: %v", spec, e.CCPolicy(), err)
		}
	}
}

// TestEngineCCPolicyIncrementalSeed: an engine under an explicit union-find
// cell must seed the incremental layer with the same canonical labels the
// pipeline produces — Apply then answers like the oracle on the grown graph.
func TestEngineCCPolicyIncrementalSeed(t *testing.T) {
	g := gen.RandomUndirected(1000, 2500, 43)
	e := NewEngine(g, Options{Threads: 2, CCPolicy: "afforest+uf-rem"})
	if _, err := e.Apply([]Edge{{U: 1, V: 2}, {U: 500, V: 900}, {U: 0, V: 999}}); err != nil {
		t.Fatal(err)
	}
	all := append(allEdges(g), graph.Edge{U: 1, V: 2}, graph.Edge{U: 500, V: 900}, graph.Edge{U: 0, V: 999})
	truth := serialdfs.CC(graph.BuildUndirected(g.NumVertices(), all))
	if err := verify.SamePartition(e.CC().Label, truth); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCCPolicyCancellation mirrors the kernel cancellation tables for
// explicit matrix cells: pre-cancelled contexts surface context.Canceled from
// CCContext, nothing partial is cached, and the clean retry matches the
// oracle — for union-find cells, the pipeline, auto, and two retired specs,
// which the engine degrades to auto.
func TestEngineCCPolicyCancellation(t *testing.T) {
	g := gen.RandomUndirected(2000, 6000, 47)
	truth := serialdfs.CC(g)
	for _, spec := range []string{"afforest+uf-async", "none+uf-rem", "pipeline", "auto", "none+labelprop", "bfs+hybrid-bfs"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			e := NewEngine(g, Options{Threads: 2, CCPolicy: spec})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.CCContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			res, err := e.CCContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.SamePartition(res.Label, truth); err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
		})
	}
}

// allEdges reconstructs the edge list of an undirected CSR (u <= v once per
// edge), for rebuilding oracle inputs.
func allEdges(g *Undirected) []graph.Edge {
	var out []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.V(v)) {
			if graph.V(v) <= u {
				out = append(out, graph.Edge{U: graph.V(v), V: u})
			}
		}
	}
	return out
}
