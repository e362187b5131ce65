package scc

import (
	"testing"
	"testing/quick"

	"aquila/internal/stats"
)

func TestPoliciesEnumeratesAllCells(t *testing.T) {
	all := Policies()
	if len(all) != int(numTail) {
		t.Fatalf("Policies() = %d cells, want %d", len(all), int(numTail))
	}
	seen := map[Policy]bool{}
	for _, pol := range all {
		if err := pol.Valid(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
		if seen[pol] {
			t.Errorf("%v enumerated twice", pol)
		}
		seen[pol] = true
	}
	if !seen[PolicyColoring] || !seen[PolicyMultiReach] {
		t.Error("named cells missing from the matrix")
	}
}

func TestZeroPolicyIsColoring(t *testing.T) {
	var zero Policy
	if zero != PolicyColoring {
		t.Fatalf("zero Policy = %v, want the coloring cell", zero)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range Policies() {
		got, err := ParsePolicy(pol.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", pol.String(), err)
			continue
		}
		if got != pol {
			t.Errorf("ParsePolicy(%q) = %v, want %v", pol.String(), got, pol)
		}
	}
	if pol, err := ParsePolicy("pipeline"); err != nil || pol != PolicyColoring {
		t.Errorf("pipeline alias: %v, %v", pol, err)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, bad := range []string{"", "auto", "color", "multireach+vgc", "fw-bw", "coloring ", "fwbw"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestPolicyValid(t *testing.T) {
	if err := (Policy{Tail: numTail}).Valid(); err == nil {
		t.Error("out-of-range tail accepted")
	}
	for _, pol := range Policies() {
		if err := pol.Valid(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// TestChoosePolicyTotal is the totality property: every reachable
// stats.SCCProbe value — including the adversarial ones testing/quick
// invents and hand-picked NaN/Inf poison — maps to a valid, runnable cell.
func TestChoosePolicyTotal(t *testing.T) {
	f := func(vertices int, edges int64, avgDeg, skew, live, mutual float64, maxDeg int) bool {
		pr := stats.SCCProbe{
			Cheap:        stats.Cheap{Vertices: vertices, Edges: edges, AvgDeg: avgDeg, Skew: skew, MaxDeg: maxDeg},
			PostTrimLive: live,
			MutualFrac:   mutual,
		}
		return ChoosePolicy(pr).Valid() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	nan := 0.0
	nan /= nan // silence vet's literal-NaN check while still producing NaN
	for _, pr := range []stats.SCCProbe{
		{},
		{Cheap: stats.Cheap{Vertices: -5, Edges: -7}},
		{Cheap: stats.Cheap{Vertices: 1 << 30, Edges: 1 << 40}, PostTrimLive: nan, MutualFrac: nan},
		{Cheap: stats.Cheap{Vertices: 10, Edges: 5}, PostTrimLive: 1e308, MutualFrac: -1e308},
	} {
		pol := ChoosePolicy(pr)
		if err := pol.Valid(); err != nil {
			t.Errorf("ChoosePolicy(%+v) = %v: %v", pr, pol, err)
		}
	}
}

// TestChoosePolicyShapes pins the chooser's intent on the canonical shapes
// (not the exact thresholds, which may be retuned against the benchmark).
func TestChoosePolicyShapes(t *testing.T) {
	tiny := ChoosePolicy(stats.SCCProbe{
		Cheap: stats.Cheap{Vertices: 100, Edges: 300}, PostTrimLive: 1.0,
	})
	if tiny != PolicyColoring {
		t.Errorf("tiny graph: %v, want coloring", tiny)
	}
	cyclic := ChoosePolicy(stats.SCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 20, Edges: 4 << 20}, PostTrimLive: 0.9, MutualFrac: 0.1,
	})
	if cyclic != PolicyMultiReach {
		t.Errorf("cycle-rich graph: %v, want multireach", cyclic)
	}
	dag := ChoosePolicy(stats.SCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 20, Edges: 4 << 20}, PostTrimLive: 0.01, MutualFrac: 0,
	})
	if dag != PolicyColoring {
		t.Errorf("trim-dominated graph: %v, want coloring", dag)
	}
}

// TestChoosePolicyMatchesProbe ties the chooser to the real probe producer:
// for every suite graph, ChoosePolicy(ProbeDirected(g)) is valid and Solve
// with it matches the pipeline labeling — the auto path end to end, without
// the engine.
func TestChoosePolicyMatchesProbe(t *testing.T) {
	for name, g := range matrixSuite() {
		pr := stats.ProbeDirected(g, 4)
		pol := ChoosePolicy(pr)
		if err := pol.Valid(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Solve(g, pol, Options{Threads: 4})
		want := Run(g, Options{Threads: 4})
		for v := range want.Label {
			if got.Label[v] != want.Label[v] {
				t.Fatalf("%s: auto cell %v diverges from pipeline at vertex %d", name, pol, v)
			}
		}
	}
}
