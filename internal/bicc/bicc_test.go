package bicc

import (
	"testing"
	"testing/quick"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/bfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

func suite() map[string]*graph.Undirected {
	return map[string]*graph.Undirected{
		"paper":      gen.PaperExampleUndirected(),
		"path":       gen.Path(20),
		"cycle":      gen.Cycle(15),
		"star":       gen.Star(12),
		"barbell":    gen.BarbellWithBridge(5),
		"complete":   gen.Complete(7),
		"twoTri":     graph.BuildUndirected(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}),
		"cycleChain": cycleChain(4, 5),
		"random1":    gen.RandomUndirected(120, 200, 11),
		"random2":    gen.RandomUndirected(120, 360, 12),
		"sparse":     gen.RandomUndirected(150, 120, 13),
		"social":     graph.Undirect(gen.Social(gen.SocialConfig{GiantVertices: 400, GiantAvgDeg: 4, SmallComps: 25, SmallMaxSize: 5, Isolated: 10, MutualFrac: 0.3, Seed: 14})),
	}
}

// cycleChain builds k cycles of length m joined consecutively by bridges —
// nested APs, bridges and blocks at many levels.
func cycleChain(k, m int) *graph.Undirected {
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: graph.V(base + i), V: graph.V(base + (i+1)%m)})
		}
		if c > 0 {
			edges = append(edges, graph.Edge{U: graph.V(base - m), V: graph.V(base)})
		}
	}
	return graph.BuildUndirected(k*m, edges)
}

func allOptions() []Options {
	return []Options{
		{Threads: 1},
		{Threads: 4},
		{Threads: 4, NoTrim: true},
		{Threads: 4, NoSPO: true},
		{Threads: 4, NoTrim: true, NoSPO: true},
		{Threads: 4, NoAdaptive: true},
		{Threads: 2, Mode: bfs.ModeEnhanced},
		{Threads: 3, NoTrim: true, NoSPO: true, NoAdaptive: true},
	}
}

func TestAPsMatchSerialAllConfigs(t *testing.T) {
	for name, g := range suite() {
		truth := serialdfs.BiCC(g)
		for _, opt := range allOptions() {
			res := Run(g, opt)
			if err := verify.SameBoolSet(res.IsAP, truth.IsAP, name+" APs"); err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
		}
	}
}

func TestBlocksMatchSerialAllConfigs(t *testing.T) {
	for name, g := range suite() {
		truth := serialdfs.BiCC(g)
		for _, opt := range allOptions() {
			res := Run(g, opt)
			if res.NumBlocks != truth.NumBlocks {
				t.Fatalf("%s %+v: NumBlocks = %d, want %d", name, opt, res.NumBlocks, truth.NumBlocks)
			}
			if err := verify.SameEdgePartition(res.BlockOf, truth.BlockOf); err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
		}
	}
}

func TestAPOnlyMode(t *testing.T) {
	for name, g := range suite() {
		truth := serialdfs.APs(g)
		res := Run(g, Options{Threads: 4, APOnly: true})
		if err := verify.SameBoolSet(res.IsAP, truth, name+" AP-only"); err != nil {
			t.Fatalf("%v", err)
		}
		if res.BlockOf != nil {
			t.Fatalf("%s: APOnly left BlockOf allocated", name)
		}
	}
}

func TestPaperExampleBlocks(t *testing.T) {
	g := gen.PaperExampleUndirected()
	res := Run(g, Options{Threads: 2})
	if res.NumBlocks != 6 {
		t.Fatalf("NumBlocks = %d, want 6", res.NumBlocks)
	}
	// AP 5 in three blocks.
	blocks := map[int64]bool{}
	lo, hi := g.SlotRange(5)
	for s := lo; s < hi; s++ {
		blocks[res.BlockOf[g.EdgeIDs()[s]]] = true
	}
	if len(blocks) != 3 {
		t.Errorf("AP 5 in %d blocks, want 3", len(blocks))
	}
}

func TestWorkloadReductionStats(t *testing.T) {
	g := suite()["social"]
	res := Run(g, Options{Threads: 4})
	st := res.Stats
	if st.Candidates == 0 {
		t.Fatalf("no candidates counted")
	}
	if st.SkippedTrim+st.SkippedSPO == 0 {
		t.Errorf("no workload reduction on a social graph: %+v", st)
	}
	if st.Ran > st.Candidates {
		t.Errorf("Ran %d exceeds candidates %d", st.Ran, st.Candidates)
	}
	// With SPO off, strictly more checks must run.
	resNo := Run(g, Options{Threads: 4, NoSPO: true})
	if resNo.Stats.Ran <= st.Ran {
		t.Errorf("NoSPO ran %d <= SPO ran %d", resNo.Stats.Ran, st.Ran)
	}
}

func TestEveryEdgeInExactlyOneBlock(t *testing.T) {
	for name, g := range suite() {
		res := Run(g, Options{Threads: 3})
		for e := int64(0); e < g.NumEdges(); e++ {
			b := res.BlockOf[e]
			if b < 0 || b >= int64(res.NumBlocks) {
				t.Fatalf("%s: edge %d block %d out of range [0,%d)", name, e, b, res.NumBlocks)
			}
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	empty := graph.BuildUndirected(0, nil)
	res := Run(empty, Options{Threads: 2})
	if res.NumBlocks != 0 {
		t.Errorf("empty graph has %d blocks", res.NumBlocks)
	}
	single := graph.BuildUndirected(1, nil)
	res = Run(single, Options{Threads: 2})
	if res.NumBlocks != 0 || res.IsAP[0] {
		t.Errorf("singleton mishandled: %+v", res)
	}
	edge := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1}})
	res = Run(edge, Options{Threads: 2})
	if res.NumBlocks != 1 || res.IsAP[0] || res.IsAP[1] {
		t.Errorf("single edge mishandled: blocks=%d aps=%v", res.NumBlocks, res.IsAP)
	}
}

// Property: arbitrary graphs, all configs match Hopcroft–Tarjan.
func TestRunProperty(t *testing.T) {
	f := func(raw []uint16, seed uint16) bool {
		const n = 32
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: graph.V(raw[i] % n), V: graph.V(raw[i+1] % n)})
		}
		g := graph.BuildUndirected(n, edges)
		truth := serialdfs.BiCC(g)
		opt := Options{
			Threads: int(seed%4) + 1,
			NoTrim:  seed%2 == 0,
			NoSPO:   seed%3 == 0,
		}
		res := Run(g, opt)
		if verify.SameBoolSet(res.IsAP, truth.IsAP, "aps") != nil {
			return false
		}
		if res.NumBlocks != truth.NumBlocks {
			return false
		}
		return verify.SameEdgePartition(res.BlockOf, truth.BlockOf) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
