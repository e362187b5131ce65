package stats

import (
	"math"
	"testing"

	"aquila/internal/gen"
	"aquila/internal/graph"
)

func TestCheapEmpty(t *testing.T) {
	c := CheapUndirected(graph.BuildUndirected(0, nil))
	if c != (Cheap{}) {
		t.Fatalf("empty graph: %+v, want zero value", c)
	}
}

func TestCheapAllIsolated(t *testing.T) {
	c := CheapUndirected(graph.BuildUndirected(10, nil))
	if c.Vertices != 10 || c.Edges != 0 || c.Isolated != 10 {
		t.Fatalf("isolated graph: %+v", c)
	}
	if c.AvgDeg != 0 || c.Skew != 0 || c.MaxDeg != 0 {
		t.Fatalf("isolated graph derived stats nonzero: %+v", c)
	}
}

func TestCheapStar(t *testing.T) {
	// Star(8): 8 vertices, a hub joined to 7 leaves.
	c := CheapUndirected(gen.Star(8))
	if c.Vertices != 8 || c.Edges != 7 {
		t.Fatalf("star counts: %+v", c)
	}
	if c.MaxDeg != 7 || c.Isolated != 0 {
		t.Fatalf("star degrees: %+v", c)
	}
	wantAvg := 14.0 / 8.0
	if math.Abs(c.AvgDeg-wantAvg) > 1e-12 {
		t.Fatalf("AvgDeg = %v, want %v", c.AvgDeg, wantAvg)
	}
	if math.Abs(c.Skew-7.0/wantAvg) > 1e-12 {
		t.Fatalf("Skew = %v, want %v", c.Skew, 7.0/wantAvg)
	}
}

func TestCheapPath(t *testing.T) {
	c := CheapUndirected(gen.Path(100))
	if c.Vertices != 100 || c.Edges != 99 || c.MaxDeg != 2 || c.Isolated != 0 {
		t.Fatalf("path: %+v", c)
	}
	if c.AvgDeg >= 2 || c.AvgDeg <= 1.9 {
		t.Fatalf("path AvgDeg = %v, want just under 2", c.AvgDeg)
	}
}

// TestCheapCountsMatchDegreeScan cross-checks the single-pass stats against
// a naive recomputation on a random graph (dedup in the builder means Edges
// may be below the requested count; the degree array is the ground truth).
func TestCheapCountsMatchDegreeScan(t *testing.T) {
	g := gen.RandomUndirected(500, 1500, 19)
	c := CheapUndirected(g)
	var deg2 int64
	maxDeg, isolated := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(graph.V(v))
		deg2 += int64(d)
		if d > maxDeg {
			maxDeg = d
		}
		if d == 0 {
			isolated++
		}
	}
	if c.Edges*2 != deg2 {
		t.Errorf("Edges = %d, degree sum %d", c.Edges, deg2)
	}
	if c.MaxDeg != maxDeg || c.Isolated != isolated {
		t.Errorf("MaxDeg/Isolated = %d/%d, want %d/%d", c.MaxDeg, c.Isolated, maxDeg, isolated)
	}
	if got := 2 * float64(c.Edges) / float64(c.Vertices); c.AvgDeg != got {
		t.Errorf("AvgDeg = %v, want %v", c.AvgDeg, got)
	}
}

// TestMutualArcsMatchesView: the out-CSR's mutual-arc count gives the
// undirected view's edge count, at every worker count, without building the
// in-CSR or the view.
func TestMutualArcsMatchesView(t *testing.T) {
	cases := func() map[string]*graph.Directed {
		return map[string]*graph.Directed{
			"empty":    graph.BuildDirected(0, nil),
			"edgeless": graph.BuildDirected(12, nil),
			"single":   graph.BuildDirected(1, nil),
			"mutual":   graph.BuildDirected(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 3}}),
			"paper":    gen.PaperExample(),
			"social": gen.Social(gen.SocialConfig{GiantVertices: 3000, GiantAvgDeg: 5, SmallComps: 200,
				SmallMaxSize: 6, Isolated: 100, MutualFrac: 0.5, Seed: 3}),
			"rmat": gen.RMAT(12, 8, 4),
		}
	}
	views := cases()
	for name, d := range cases() {
		want := graph.Undirect(views[name]).NumEdges()
		for _, p := range []int{1, 2, 4} {
			if got := d.NumArcs() - MutualArcs(d, p)/2; got != want {
				t.Errorf("%s p=%d: %d edges, want %d", name, p, got, want)
			}
		}
		if d.InBuilt() || d.UndirectedBuilt() {
			t.Errorf("%s: the count built the in-CSR or the undirected view", name)
		}
	}
}
