package stats

import (
	"testing"

	"aquila/internal/gen"
	"aquila/internal/graph"
)

func arcs(pairs ...int) []graph.Edge {
	es := make([]graph.Edge, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		es = append(es, graph.Edge{U: graph.V(pairs[i]), V: graph.V(pairs[i+1])})
	}
	return es
}

func TestCheapDirected(t *testing.T) {
	// Star out of vertex 0 plus one back-arc: degrees 0:4, 1:2, 2:1, 3:1.
	g := graph.BuildDirected(4, arcs(0, 1, 0, 2, 0, 3, 1, 0))
	c := CheapDirected(g)
	if c.Vertices != 4 || c.Edges != 4 {
		t.Fatalf("counts: %+v", c)
	}
	if c.MaxDeg != 4 || c.Isolated != 0 {
		t.Fatalf("degrees: %+v", c)
	}
	if c.AvgDeg != 2 || c.Skew != 2 {
		t.Fatalf("AvgDeg/Skew: %+v", c)
	}
}

func TestProbeDirectedEmpty(t *testing.T) {
	pr := ProbeDirected(graph.BuildDirected(0, nil), 4)
	if pr.PostTrimLive != 0 || pr.MutualFrac != 0 {
		t.Fatalf("empty graph probe not zero: %+v", pr)
	}
}

// TestProbeDirectedChain: a 4-vertex path dies completely within the two
// bounded rounds (endpoints first, then the middle), and a pure DAG has no
// reciprocated arcs.
func TestProbeDirectedChain(t *testing.T) {
	g := graph.BuildDirected(4, arcs(0, 1, 1, 2, 2, 3))
	pr := ProbeDirected(g, 2)
	if pr.PostTrimLive != 0 {
		t.Errorf("PostTrimLive = %v on a short chain, want 0", pr.PostTrimLive)
	}
	if pr.MutualFrac != 0 {
		t.Errorf("MutualFrac = %v on a DAG, want 0", pr.MutualFrac)
	}
}

// TestProbeDirectedCycle: the size-1 criterion can never fire on a cycle, so
// everything stays live no matter how many rounds run.
func TestProbeDirectedCycle(t *testing.T) {
	g := gen.Rings(gen.RingsConfig{Rings: 1, MinSize: 64, MaxSize: 64, Seed: 5})
	pr := ProbeDirected(g, 4)
	if pr.PostTrimLive != 1 {
		t.Errorf("PostTrimLive = %v on a cycle, want 1", pr.PostTrimLive)
	}
}

// TestProbeDirectedMutualPairs: every arc reciprocated → MutualFrac 1, and
// mutual pairs are 2-cycles the size-1 criterion cannot touch.
func TestProbeDirectedMutualPairs(t *testing.T) {
	var es []graph.Edge
	for i := 0; i < 32; i += 2 {
		es = append(es, graph.Edge{U: graph.V(i), V: graph.V(i + 1)},
			graph.Edge{U: graph.V(i + 1), V: graph.V(i)})
	}
	pr := ProbeDirected(graph.BuildDirected(32, es), 4)
	if pr.MutualFrac != 1 {
		t.Errorf("MutualFrac = %v with all arcs reciprocated, want 1", pr.MutualFrac)
	}
	if pr.PostTrimLive != 1 {
		t.Errorf("PostTrimLive = %v on disjoint 2-cycles, want 1", pr.PostTrimLive)
	}
}

// TestProbeDirectedBounded: on a long path the bounded probe must NOT trim to
// a fixed point — exactly 2·probeTrimRounds vertices die (two ends per
// round), which is the whole point of bounding it.
func TestProbeDirectedBounded(t *testing.T) {
	const n = 200
	var es []graph.Edge
	for i := 0; i < n-1; i++ {
		es = append(es, graph.Edge{U: graph.V(i), V: graph.V(i + 1)})
	}
	pr := ProbeDirected(graph.BuildDirected(n, es), 4)
	want := float64(n-2*probeTrimRounds) / float64(n)
	if pr.PostTrimLive != want {
		t.Errorf("PostTrimLive = %v, want %v (bounded rounds)", pr.PostTrimLive, want)
	}
}

// TestProbeDeterministic: same graph, different thread counts → identical
// probe (the chooser's input must not depend on the schedule).
func TestProbeDeterministic(t *testing.T) {
	g := gen.Random(2000, 8000, 71)
	a := ProbeDirected(g, 1)
	b := ProbeDirected(g, 4)
	if a != b {
		t.Fatalf("probe differs by thread count: %+v vs %+v", a, b)
	}
}
