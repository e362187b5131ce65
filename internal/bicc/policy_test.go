package bicc

import (
	"testing"
	"testing/quick"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/stats"
	"aquila/internal/verify"
)

func TestPoliciesEnumeratesAllCells(t *testing.T) {
	all := Policies()
	if len(all) != int(numKernel) {
		t.Fatalf("Policies() = %d cells, want %d", len(all), int(numKernel))
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
	if !seen[PolicyConstrained] || !seen[PolicySkeleton] {
		t.Error("named cells missing from the matrix")
	}
}

func TestZeroPolicyIsConstrained(t *testing.T) {
	var zero Policy
	if zero != PolicyConstrained {
		t.Fatalf("zero Policy = %v, want the constrained cell", zero)
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
	if pol, err := ParsePolicy("pipeline"); err != nil || pol != PolicyConstrained {
		t.Errorf("pipeline alias: %v, %v", pol, err)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, bad := range []string{"", "auto", "skel", "constrained+spo", "tarjan", "skeleton "} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestPolicyValid(t *testing.T) {
	if err := (Policy{Kernel: numKernel}).Valid(); err == nil {
		t.Error("out-of-range kernel accepted")
	}
	for _, pol := range Policies() {
		if err := pol.Valid(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// TestChoosePolicyTotal is the totality property: every reachable
// stats.BiCCProbe value — including the adversarial ones testing/quick
// invents and hand-picked NaN/Inf poison — maps to a valid, runnable cell.
func TestChoosePolicyTotal(t *testing.T) {
	f := func(vertices int, edges int64, avgDeg, skew float64, maxDeg, depth int, capped bool) bool {
		pr := stats.BiCCProbe{
			Cheap:       stats.Cheap{Vertices: vertices, Edges: edges, AvgDeg: avgDeg, Skew: skew, MaxDeg: maxDeg},
			Depth:       depth,
			DepthCapped: capped,
		}
		return ChoosePolicy(pr).Valid() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	nan := 0.0
	nan /= nan // silence vet's literal-NaN check while still producing NaN
	for _, pr := range []stats.BiCCProbe{
		{},
		{Cheap: stats.Cheap{Vertices: -5, Edges: -7}, Depth: -3},
		{Cheap: stats.Cheap{Vertices: 1 << 30, Edges: 1 << 40, AvgDeg: nan, Skew: nan}},
		{Cheap: stats.Cheap{Vertices: 10, Edges: 5, Skew: 1e308, AvgDeg: -1e308}, DepthCapped: true},
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
	tiny := ChoosePolicy(stats.BiCCProbe{
		Cheap: stats.Cheap{Vertices: 100, Edges: 300}, Depth: 90, DepthCapped: true,
	})
	if tiny != PolicyConstrained {
		t.Errorf("tiny graph: %v, want constrained", tiny)
	}
	deep := ChoosePolicy(stats.BiCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 20, Edges: 4 << 20}, Depth: 64, DepthCapped: true,
	})
	if deep != PolicySkeleton {
		t.Errorf("deep chain graph: %v, want skeleton", deep)
	}
	shallow := ChoosePolicy(stats.BiCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 20, Edges: 16 << 20, AvgDeg: 32, MaxDeg: 64, Skew: 2},
		Depth: 6,
	})
	if shallow != PolicyConstrained {
		t.Errorf("shallow dense graph: %v, want constrained", shallow)
	}
	// Hub-free sparse graph (near-critical random): articulation-dense, so
	// skeleton even though the probe never runs deep.
	tendril := ChoosePolicy(stats.BiCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 18, Edges: 300 << 10, AvgDeg: 2.3, MaxDeg: 12, Skew: 5.2},
		Depth: 12,
	})
	if tendril != PolicySkeleton {
		t.Errorf("hub-free sparse graph: %v, want skeleton", tendril)
	}
	// Deep lollipop: the depth comes from a pendant tail both cells trim;
	// the hubby head (high skew, high max degree) keeps it constrained.
	lollipop := ChoosePolicy(stats.BiCCProbe{
		Cheap: stats.Cheap{Vertices: 1 << 15, Edges: 50 << 10, AvgDeg: 4.7, MaxDeg: 40, Skew: 8.4},
		Depth: 64, DepthCapped: true,
	})
	if lollipop != PolicyConstrained {
		t.Errorf("deep lollipop graph: %v, want constrained", lollipop)
	}
}

// TestChoosePolicyMatchesProbe ties the chooser to the real probe producer:
// for every matrix-suite graph, ChoosePolicy(ProbeUndirected(g)) is valid
// and Solve with it matches the serial oracle — the auto path end to end,
// without the engine.
func TestChoosePolicyMatchesProbe(t *testing.T) {
	for name, g := range matrixSuite() {
		pr := stats.ProbeUndirected(g)
		pol := ChoosePolicy(pr)
		if err := pol.Valid(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth := serialdfs.BiCC(g)
		got := Solve(g, pol, Options{Threads: 4})
		if err := verify.SameBoolSet(got.IsAP, truth.IsAP, "auto APs"); err != nil {
			t.Fatalf("%s (auto cell %v): %v", name, pol, err)
		}
		if got.NumBlocks != truth.NumBlocks {
			t.Fatalf("%s (auto cell %v): NumBlocks = %d, want %d", name, pol, got.NumBlocks, truth.NumBlocks)
		}
		if err := verify.SameEdgePartition(got.BlockOf, truth.BlockOf); err != nil {
			t.Fatalf("%s (auto cell %v): %v", name, pol, err)
		}
	}
}

// TestProbeDepthSignals pins the probe's two stopping modes: a long chain
// trips the round cap (DepthCapped), a star finishes in two levels, and the
// probe itself reports the depth a full BFS would.
func TestProbeDepthSignals(t *testing.T) {
	chain := gen.CliqueChain(gen.CliqueChainConfig{Cliques: 120, CliqueSize: 4, Shuffle: true, Seed: 31})
	pr := stats.ProbeUndirected(chain)
	if !pr.DepthCapped {
		t.Errorf("deep chain did not cap the probe: %+v", pr)
	}
	star := gen.Star(2000)
	pr = stats.ProbeUndirected(star)
	if pr.DepthCapped || pr.Depth != 1 {
		t.Errorf("star probe = %+v, want depth 1 uncapped", pr)
	}
	if pr = stats.ProbeUndirected(gen.Path(5)); pr.Depth == 0 {
		t.Errorf("path probe saw no depth: %+v", pr)
	}
	empty := stats.ProbeUndirected(gen.Star(1))
	if empty.Depth != 0 || empty.DepthCapped {
		t.Errorf("edgeless probe = %+v, want zero", empty)
	}
}
