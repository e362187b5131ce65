package cc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aquila/internal/stats"
)

func TestPoliciesEnumeratesFullMatrix(t *testing.T) {
	all := Policies()
	var names []string
	for _, pol := range all {
		names = append(names, pol.String())
	}
	want := []string{"none+hybrid-bfs", "none+uf-async", "none+uf-rem", "afforest+uf-async", "afforest+uf-rem"}
	if !slices.Equal(names, want) {
		t.Fatalf("Policies() = %v, want %v", names, want)
	}
	if err := (Policy{Sampling: SampleAfforest, Finish: FinishEnhancedBFS}).Valid(); err == nil {
		t.Error("afforest+hybrid-bfs accepted as a cell")
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
	if !seen[PolicyPipeline] {
		t.Error("pipeline cell missing from the matrix")
	}
}

func TestZeroPolicyIsPipeline(t *testing.T) {
	var zero Policy
	if zero != PolicyPipeline {
		t.Fatalf("zero Policy = %v, want the pipeline cell", zero)
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
}

func TestParsePolicyAliases(t *testing.T) {
	if pol, err := ParsePolicy("pipeline"); err != nil || pol != PolicyPipeline {
		t.Errorf("pipeline alias: %v, %v", pol, err)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, bad := range []string{
		"", "auto", "afforest", "afforest+nope", "nope+uf-async", "a+b+c", "afforest+uf-async+x",
		"kout+uf-async", "kout+uf-rem", "kout+hybrid-bfs", "kout+labelprop",
		"bfs+uf-async", "bfs+uf-rem", "bfs+hybrid-bfs", "bfs+labelprop",
		"none+labelprop", "none+lp", "afforest+labelprop", "afforest+lp", "afforest+hybrid-bfs",
	} {
		_, err := ParsePolicy(bad)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "afforest+uf-rem") {
			t.Errorf("ParsePolicy(%q): %v does not name the valid cells", bad, err)
		}
	}
}

func TestPolicyValid(t *testing.T) {
	if err := (Policy{Sampling: numSampling}).Valid(); err == nil {
		t.Error("out-of-range sampling accepted")
	}
	if err := (Policy{Finish: numFinish}).Valid(); err == nil {
		t.Error("out-of-range finish accepted")
	}
	if err := (Policy{Sampling: SampleAfforest, Finish: FinishEnhancedBFS}).Valid(); err == nil {
		t.Error("sampled hybrid-bfs accepted")
	}
	if err := (Policy{Sampling: SampleAfforest, Finish: FinishUFRem}).Valid(); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
}

// TestChoosePolicyTotal is the totality property: every reachable
// stats.Cheap value — including the adversarial ones testing/quick invents
// (negative counts, NaN-free but absurd ratios) and hand-picked NaN/Inf
// poison — maps to a valid, runnable cell.
func TestChoosePolicyTotal(t *testing.T) {
	f := func(vertices int, edges int64, avgDeg, skew float64, maxDeg, isolated int) bool {
		cs := stats.Cheap{
			Vertices: vertices, Edges: edges, AvgDeg: avgDeg,
			MaxDeg: maxDeg, Skew: skew, Isolated: isolated,
		}
		return ChoosePolicy(cs).Valid() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	nan := 0.0
	nan /= nan // silence vet's literal-NaN check while still producing NaN
	for _, cs := range []stats.Cheap{
		{},
		{Vertices: -5, Edges: -7},
		{Vertices: 1 << 30, Edges: 1 << 40, AvgDeg: nan, Skew: nan},
		{Vertices: 10, Edges: 5, AvgDeg: 1e308, Skew: 1e308},
	} {
		pol := ChoosePolicy(cs)
		if err := pol.Valid(); err != nil {
			t.Errorf("ChoosePolicy(%+v) = %v: %v", cs, pol, err)
		}
	}
}

// TestChoosePolicyShapes pins the chooser's intent on the canonical shapes
// (not the exact cells — thresholds may be retuned — but the properties the
// chooser exists to deliver).
func TestChoosePolicyShapes(t *testing.T) {
	tiny := ChoosePolicy(stats.Cheap{Vertices: 100, Edges: 200, AvgDeg: 4, Skew: 2})
	if tiny != PolicyPipeline {
		t.Errorf("tiny graph: %v, want pipeline", tiny)
	}
	social := ChoosePolicy(stats.Cheap{Vertices: 1 << 20, Edges: 8 << 20, AvgDeg: 16, Skew: 500})
	if social.Sampling == SampleNone {
		t.Errorf("hub-skewed graph chose no sampling: %v", social)
	}
	forest := ChoosePolicy(stats.Cheap{Vertices: 1 << 20, Edges: 1 << 19, AvgDeg: 1, Skew: 4})
	if forest.Sampling != SampleNone {
		t.Errorf("forest-like graph chose sampling: %v", forest)
	}
	// A dense mesh (5000 vertices, density ~0.27) has no branch of its own:
	// it samples, and Rem's unite sweeps the rows outside the giant.
	dense := ChoosePolicy(stats.Cheap{Vertices: 5000, Edges: 3420000, AvgDeg: 1368, Skew: 1.1})
	if want := (Policy{Sampling: SampleAfforest, Finish: FinishUFRem}); dense != want {
		t.Errorf("dense graph: %v, want %v", dense, want)
	}
}

// TestChoosePolicyMatchesCheapStats ties the chooser to the real stats
// producer: for every suite graph, ChoosePolicy(CheapUndirected(g)) is valid
// and Solve with it matches the pipeline partition (the auto path end to
// end, without the engine).
func TestChoosePolicyMatchesCheapStats(t *testing.T) {
	for name, g := range matrixSuite() {
		cs := stats.CheapUndirected(g)
		pol := ChoosePolicy(cs)
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
