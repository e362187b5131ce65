package aquila

import (
	"math"
	"reflect"
	"testing"

	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

// reorderTestGraphs is the graph-class sweep the answer-preservation property
// runs over: skewed (R-MAT), uniform, and many-small-components (social).
func reorderTestGraphs(tb testing.TB) map[string]*Directed {
	tb.Helper()
	return map[string]*Directed{
		"rmat":   gen.RMAT(9, 8, 1),
		"random": gen.Random(2000, 8000, 2),
		"social": gen.Social(gen.SocialConfig{
			GiantVertices: 1500, GiantAvgDeg: 5,
			SmallComps: 80, SmallMaxSize: 6,
			Isolated: 40, MutualFrac: 0.4, Seed: 3,
		}),
	}
}

var reorderModes = map[string]Reorder{"degree": ReorderDegree, "bfs": ReorderBFS}

// TestReorderAnswerPreserving is the tentpole property test: for every graph
// class and every Reorder mode, all five XCC decompositions of the reordered
// engine are partition-identical to the unreordered run, and the AP/bridge/
// score results map back exactly. Reordering must be observationally
// invisible.
func TestReorderAnswerPreserving(t *testing.T) {
	for gname, g := range reorderTestGraphs(t) {
		base := NewDirectedEngine(g, Options{})
		baseCC := base.CC()
		baseSCC, err := base.SCC()
		if err != nil {
			t.Fatal(err)
		}
		baseBiCC := base.BiCC()
		baseBgCC := base.BgCC()
		baseAPs := base.ArticulationPoints()
		baseBridges := base.Bridges()
		baseHist := base.CCSizeHistogram()
		baseCore := base.Coreness()
		baseBtw := base.BetweennessCentrality()
		for mname, mode := range reorderModes {
			t.Run(gname+"/"+mname, func(t *testing.T) {
				e := NewDirectedEngine(g, Options{Reorder: mode})

				cc := e.CC()
				if err := verify.SamePartition(baseCC.Label, cc.Label); err != nil {
					t.Fatalf("CC: %v", err)
				}
				if cc.NumComponents != baseCC.NumComponents || cc.LargestSize != baseCC.LargestSize {
					t.Fatalf("CC summary: want (%d,%d), got (%d,%d)",
						baseCC.NumComponents, baseCC.LargestSize, cc.NumComponents, cc.LargestSize)
				}
				// Remapped labels must stay self-representative: each label
				// names a member vertex of its own component.
				for v, l := range cc.Label {
					if cc.Label[l] != l {
						t.Fatalf("label %d of vertex %d is not self-representative", l, v)
					}
				}

				scc, err := e.SCC()
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.SamePartition(baseSCC.Label, scc.Label); err != nil {
					t.Fatalf("SCC: %v", err)
				}
				if scc.NumComponents != baseSCC.NumComponents || scc.LargestSize != baseSCC.LargestSize {
					t.Fatal("SCC summary diverged")
				}

				bicc := e.BiCC()
				if err := verify.SameEdgePartition(baseBiCC.BlockOf, bicc.BlockOf); err != nil {
					t.Fatalf("BiCC blocks: %v", err)
				}
				if err := verify.SameBoolSet(bicc.IsAP, baseBiCC.IsAP, "AP"); err != nil {
					t.Fatalf("BiCC APs: %v", err)
				}
				if bicc.NumBlocks != baseBiCC.NumBlocks {
					t.Fatal("BiCC block count diverged")
				}

				bgcc := e.BgCC()
				if err := verify.BridgeSetEqual(bgcc.IsBridge, baseBgCC.IsBridge); err != nil {
					t.Fatalf("BgCC bridges: %v", err)
				}
				if err := verify.SamePartition(baseBgCC.Label, bgcc.Label); err != nil {
					t.Fatalf("BgCC labels: %v", err)
				}
				if bgcc.NumComponents != baseBgCC.NumComponents || bgcc.LargestSize != baseBgCC.LargestSize {
					t.Fatal("BgCC summary diverged")
				}

				if aps := e.ArticulationPoints(); !reflect.DeepEqual(aps, baseAPs) {
					t.Fatalf("AP set: want %d entries, got %d", len(baseAPs), len(aps))
				}
				if br := e.Bridges(); !reflect.DeepEqual(br, baseBridges) {
					t.Fatalf("bridge set: want %d entries, got %d", len(baseBridges), len(br))
				}
				if hist := e.CCSizeHistogram(); !reflect.DeepEqual(hist, baseHist) {
					t.Fatal("CC size histogram diverged")
				}

				if core := e.Coreness(); !reflect.DeepEqual(core, baseCore) {
					t.Fatal("coreness diverged")
				}
				btw := e.BetweennessCentrality()
				for v := range btw {
					if math.Abs(btw[v]-baseBtw[v]) > 1e-6*(1+math.Abs(baseBtw[v])) {
						t.Fatalf("betweenness of %d: want %g, got %g", v, baseBtw[v], btw[v])
					}
				}

				// Pair queries and partial paths answer in original ids.
				if e.IsConnected() != base.IsConnected() {
					t.Fatal("IsConnected diverged")
				}
				if e.CountCC() != base.CountCC() {
					t.Fatal("CountCC diverged")
				}
				lcc, baseLCC := e.LargestCC(), base.LargestCC()
				if lcc.Size != baseLCC.Size {
					t.Fatalf("LargestCC size: want %d, got %d", baseLCC.Size, lcc.Size)
				}
				if !lcc.Contains(lcc.Pivot) {
					t.Fatal("LargestCC pivot not in its own component")
				}
				lscc, err := e.LargestSCC()
				if err != nil {
					t.Fatal(err)
				}
				baseLSCC, _ := base.LargestSCC()
				if lscc.Size != baseLSCC.Size {
					t.Fatal("LargestSCC size diverged")
				}
				if !lscc.Contains(lscc.Pivot) {
					t.Fatal("LargestSCC pivot not in its own component")
				}
				rng := gen.NewRNG(7)
				n := g.NumVertices()
				for i := 0; i < 500; i++ {
					u, v := V(rng.Intn(n)), V(rng.Intn(n))
					if e.Connected(u, v) != (baseCC.Label[u] == baseCC.Label[v]) {
						t.Fatalf("Connected(%d,%d) diverged", u, v)
					}
					// Membership must agree with the engine's own closure (the
					// cross-engine component can differ only under exact size
					// ties, so that comparison is by size above).
					if e.InLargestCC(u) != lcc.Contains(u) {
						t.Fatalf("InLargestCC(%d) inconsistent with LargestCC().Contains", u)
					}
				}

				// The accessors hand back original-id graphs, structurally
				// identical to the input.
				und := e.Undirected()
				bu := base.Undirected()
				if und.NumVertices() != bu.NumVertices() || und.NumEdges() != bu.NumEdges() {
					t.Fatal("Undirected() shape diverged")
				}
				if e.Directed() != g {
					// Before any Apply the engine must return the exact input.
					t.Fatal("Directed() did not return the original graph")
				}
			})
		}
	}
}

// TestReorderUndirectedEngine runs the same property over an undirected
// engine (the other construction path).
func TestReorderUndirectedEngine(t *testing.T) {
	u := graph.Undirect(gen.RMAT(9, 8, 5))
	base := NewEngine(u, Options{})
	baseCC := base.CC()
	baseAPs := base.ArticulationPoints()
	baseBridges := base.Bridges()
	for mname, mode := range reorderModes {
		t.Run(mname, func(t *testing.T) {
			e := NewEngine(u, Options{Reorder: mode})
			if err := verify.SamePartition(baseCC.Label, e.CC().Label); err != nil {
				t.Fatalf("CC: %v", err)
			}
			if !reflect.DeepEqual(e.ArticulationPoints(), baseAPs) {
				t.Fatal("AP set diverged")
			}
			if !reflect.DeepEqual(e.Bridges(), baseBridges) {
				t.Fatal("bridge set diverged")
			}
			if e.Undirected() != u {
				t.Fatal("Undirected() did not return the original graph")
			}
		})
	}
}

// TestReorderApplyPreserving drives the incremental path under reordering:
// identical batches (in original ids) against a reordered and an unreordered
// engine must stay answer-identical through merges, materialization, and a
// threshold-triggered rebuild.
func TestReorderApplyPreserving(t *testing.T) {
	g := gen.Social(gen.SocialConfig{
		GiantVertices: 1200, GiantAvgDeg: 4,
		SmallComps: 100, SmallMaxSize: 5,
		Isolated: 60, MutualFrac: 0.3, Seed: 11,
	})
	n := g.NumVertices()
	for mname, mode := range reorderModes {
		t.Run(mname, func(t *testing.T) {
			base := NewDirectedEngine(g, Options{RebuildThreshold: 0.05})
			e := NewDirectedEngine(g, Options{Reorder: mode, RebuildThreshold: 0.05})
			rng := gen.NewRNG(42)
			for round := 0; round < 8; round++ {
				batch := make([]Edge, 0, 64)
				for i := 0; i < 64; i++ {
					batch = append(batch, Edge{U: V(rng.Intn(n)), V: V(rng.Intn(n))})
				}
				br, err := base.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				er, err := e.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				if br.NewEdges != er.NewEdges || br.NewArcs != er.NewArcs ||
					br.Merged != er.Merged || br.Components != er.Components {
					t.Fatalf("round %d: ApplyResult diverged: base=%+v reorder=%+v", round, br, er)
				}
				for i := 0; i < 200; i++ {
					u, v := V(rng.Intn(n)), V(rng.Intn(n))
					if base.Connected(u, v) != e.Connected(u, v) {
						t.Fatalf("round %d: Connected(%d,%d) diverged", round, u, v)
					}
				}
				if err := verify.SamePartition(base.CC().Label, e.CC().Label); err != nil {
					t.Fatalf("round %d: CC: %v", round, err)
				}
			}
			// Force materialization on both sides and compare the rebuilt
			// original-id graphs byte for byte: the reordered engine's
			// round-trip (compute ids -> inverse permutation) must agree with
			// the directly-maintained graph.
			bu, eu := base.Undirected(), e.Undirected()
			bo, ba := bu.CSR()
			eo, ea := eu.CSR()
			if !reflect.DeepEqual(bo, eo) || !reflect.DeepEqual(ba, ea) {
				t.Fatal("materialized Undirected() CSR diverged")
			}
			bd, ed := base.Directed(), e.Directed()
			boo, boa := bd.OutCSR()
			eoo, eoa := ed.OutCSR()
			if !reflect.DeepEqual(boo, eoo) || !reflect.DeepEqual(boa, eoa) {
				t.Fatal("materialized Directed() CSR diverged")
			}
			if err := verify.SameEdgePartition(base.BiCC().BlockOf, e.BiCC().BlockOf); err != nil {
				t.Fatalf("post-apply BiCC: %v", err)
			}
			if !reflect.DeepEqual(base.Bridges(), e.Bridges()) {
				t.Fatal("post-apply bridge set diverged")
			}
			sb, _ := base.SCC()
			se, err := e.SCC()
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.SamePartition(sb.Label, se.Label); err != nil {
				t.Fatalf("post-apply SCC: %v", err)
			}
		})
	}
}

// TestReorderPermutationInvariants sanity-checks the orders themselves:
// valid bijections, degree order sorted by descending degree, BFS order
// clustering each component contiguously.
func TestReorderPermutationInvariants(t *testing.T) {
	u := graph.Undirect(gen.RMAT(8, 8, 9))
	n := u.NumVertices()
	for name, p := range map[string]*graph.Permutation{
		"degree": graph.DegreeOrder(u, 0),
		"bfs":    graph.BFSOrder(u, 0),
	} {
		if len(p.Perm) != n || len(p.Inv) != n {
			t.Fatalf("%s: bad length", name)
		}
		for v := 0; v < n; v++ {
			if int(p.Inv[p.Perm[v]]) != v {
				t.Fatalf("%s: not a bijection at %d", name, v)
			}
		}
	}
	d := graph.DegreeOrder(u, 0)
	for i := 1; i < n; i++ {
		if u.Degree(d.Inv[i]) > u.Degree(d.Inv[i-1]) {
			t.Fatalf("degree order not descending at rank %d", i)
		}
	}
	// Rank 0 of both orders is a max-degree vertex.
	b := graph.BFSOrder(u, 0)
	if u.Degree(b.Inv[0]) != u.Degree(u.MaxDegreeVertex()) {
		t.Fatal("BFS order does not start at a max-degree hub")
	}
}

// TestEngineLargestCCContainsOutOfRange mirrors the snapshot-layer
// regression on the Engine path: every LargestCC/LargestSCC contains closure
// (partial traversal, permuted partial, census fallback) must answer false
// for out-of-range vertices instead of indexing the permutation or the label
// array past its end.
func TestEngineLargestCCContainsOutOfRange(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}}
	const n = 10
	for _, mode := range []Reorder{ReorderNone, ReorderDegree} {
		for _, disablePartial := range []bool{false, true} {
			e := NewEngine(NewUndirected(n, edges),
				Options{Threads: 2, Reorder: mode, DisablePartial: disablePartial})
			res := e.LargestCC()
			if res.Size != 8 || !res.Contains(0) || res.Contains(9) {
				t.Fatalf("reorder=%v partial=%v: in-range answers wrong", mode, !disablePartial)
			}
			for _, v := range []V{n, 1 << 20, graph.NoVertex} {
				if res.Contains(v) {
					t.Fatalf("reorder=%v partial=%v: Contains(%d) = true out of range", mode, !disablePartial, v)
				}
			}
			if e.InLargestCC(graph.NoVertex) {
				t.Fatalf("reorder=%v partial=%v: InLargestCC out of range = true", mode, !disablePartial)
			}
		}
		// Directed twin: LargestSCC's forward/backward closure.
		d := NewDirectedEngine(NewDirected(n, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 4}}),
			Options{Threads: 2, Reorder: mode})
		sres, err := d.LargestSCC()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []V{n, graph.NoVertex} {
			if sres.Contains(v) {
				t.Fatalf("reorder=%v: LargestSCC.Contains(%d) = true out of range", mode, v)
			}
		}
	}
}

// TestReorderedDirectedEngineLeavesInCSRUnbuilt checks that a reordered
// directed engine keeps the caller's graph, as origDir, without an in-CSR.
func TestReorderedDirectedEngineLeavesInCSRUnbuilt(t *testing.T) {
	for name, mode := range reorderModes {
		g := gen.Random(5000, 20000, 4)
		NewDirectedEngine(g, Options{Reorder: mode})
		if g.InBuilt() {
			t.Errorf("%s: constructing the engine built the caller graph's in-CSR", name)
		}
	}
}
