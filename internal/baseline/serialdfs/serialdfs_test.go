package serialdfs

import (
	"testing"

	"aquila/internal/gen"
	"aquila/internal/graph"
)

func countDistinct(labels []uint32) int {
	set := make(map[uint32]bool)
	for _, l := range labels {
		set[l] = true
	}
	return len(set)
}

func TestCCPaperExample(t *testing.T) {
	g := gen.PaperExampleUndirected()
	labels := CC(g)
	if got := countDistinct(labels); got != 3 {
		t.Fatalf("CC count = %d, want 3", got)
	}
	// {12,13} must be their own component.
	if labels[12] != labels[13] {
		t.Errorf("12 and 13 not in the same CC")
	}
	if labels[12] == labels[0] || labels[12] == labels[8] {
		t.Errorf("{12,13} merged with another CC")
	}
	if labels[0] != labels[7] {
		t.Errorf("CC A not connected: label[0]=%d label[7]=%d", labels[0], labels[7])
	}
	if labels[8] != labels[11] {
		t.Errorf("CC B not connected")
	}
}

func TestWCCMatchesCCOnUndirectedView(t *testing.T) {
	d := gen.PaperExample()
	u := graph.Undirect(d)
	w := WCC(d)
	c := CC(u)
	if countDistinct(w) != countDistinct(c) {
		t.Fatalf("WCC count %d != CC count %d", countDistinct(w), countDistinct(c))
	}
	for i := range w {
		for j := range w {
			if (w[i] == w[j]) != (c[i] == c[j]) {
				t.Fatalf("partition mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestSCCPaperExample(t *testing.T) {
	g := gen.PaperExample()
	labels := SCC(g)
	if got := countDistinct(labels); got != 6 {
		t.Fatalf("SCC count = %d, want 6", got)
	}
	// The big SCC {0,2,3,4,5,6,7}.
	for _, v := range []graph.V{2, 3, 4, 5, 6, 7} {
		if labels[v] != labels[0] {
			t.Errorf("vertex %d not in the big SCC", v)
		}
	}
	// Singletons and the 3-cycle.
	if labels[1] == labels[0] {
		t.Errorf("vertex 1 should be a singleton SCC")
	}
	if labels[8] != labels[9] || labels[9] != labels[10] {
		t.Errorf("{8,9,10} should be one SCC")
	}
	if labels[11] == labels[9] {
		t.Errorf("vertex 11 should be a singleton SCC")
	}
	if labels[12] == labels[13] {
		t.Errorf("12→13 is one-directional; distinct SCCs expected")
	}
}

func TestSCCTwoCycle(t *testing.T) {
	g := graph.BuildDirected(2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}})
	labels := SCC(g)
	if labels[0] != labels[1] {
		t.Errorf("mutual pair should be one SCC")
	}
}

func TestSCCDAGIsAllSingletons(t *testing.T) {
	g := graph.BuildDirected(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if got := countDistinct(SCC(g)); got != 5 {
		t.Errorf("SCC count = %d, want 5 on a DAG", got)
	}
}

func TestBiCCPaperExample(t *testing.T) {
	g := gen.PaperExampleUndirected()
	res := BiCC(g)
	wantAPs := map[graph.V]bool{5: true, 9: true}
	for v := 0; v < g.NumVertices(); v++ {
		if res.IsAP[v] != wantAPs[graph.V(v)] {
			t.Errorf("IsAP[%d] = %v, want %v", v, res.IsAP[v], wantAPs[graph.V(v)])
		}
	}
	if res.NumBlocks != 6 {
		t.Errorf("NumBlocks = %d, want 6", res.NumBlocks)
	}
	// AP 5 must appear in exactly three different blocks.
	blocks5 := make(map[int64]bool)
	lo, hi := g.SlotRange(5)
	for s := lo; s < hi; s++ {
		blocks5[res.BlockOf[g.EdgeIDs()[s]]] = true
	}
	if len(blocks5) != 3 {
		t.Errorf("AP 5 appears in %d blocks, want 3", len(blocks5))
	}
	// Every edge got a block.
	for id, b := range res.BlockOf {
		if b < 0 {
			t.Errorf("edge %d has no block", id)
		}
	}
}

func TestBridgesPaperExample(t *testing.T) {
	g := gen.PaperExampleUndirected()
	bridge := Bridges(g)
	want := map[int64]bool{
		g.EdgeIDOf(1, 5):   true,
		g.EdgeIDOf(9, 11):  true,
		g.EdgeIDOf(12, 13): true,
	}
	count := 0
	for id, b := range bridge {
		if b {
			count++
			if !want[int64(id)] {
				t.Errorf("edge %d flagged as bridge unexpectedly", id)
			}
		}
	}
	if count != 3 {
		t.Errorf("bridge count = %d, want 3", count)
	}
}

func TestBgCCPaperExample(t *testing.T) {
	g := gen.PaperExampleUndirected()
	labels := BgCC(g)
	if got := countDistinct(labels); got != 6 {
		t.Fatalf("BgCC count = %d, want 6", got)
	}
	// {0,2,3,4,5,6,7} stays one 2-edge-connected component via vertex 5.
	for _, v := range []graph.V{2, 3, 4, 5, 6, 7} {
		if labels[v] != labels[0] {
			t.Errorf("vertex %d should share the big BgCC", v)
		}
	}
	for _, v := range []graph.V{1, 11, 12, 13} {
		if labels[v] != uint32(v) {
			t.Errorf("vertex %d should be a singleton BgCC", v)
		}
	}
}

func TestBiCCOnCycleAndPath(t *testing.T) {
	cyc := gen.Cycle(8)
	res := BiCC(cyc)
	if res.NumBlocks != 1 {
		t.Errorf("cycle: NumBlocks = %d, want 1", res.NumBlocks)
	}
	for v, ap := range res.IsAP {
		if ap {
			t.Errorf("cycle: vertex %d flagged AP", v)
		}
	}
	path := gen.Path(8)
	res = BiCC(path)
	if res.NumBlocks != 7 {
		t.Errorf("path: NumBlocks = %d, want 7", res.NumBlocks)
	}
	for v := 1; v < 7; v++ {
		if !res.IsAP[v] {
			t.Errorf("path: internal vertex %d should be an AP", v)
		}
	}
	if res.IsAP[0] || res.IsAP[7] {
		t.Errorf("path: endpoints must not be APs")
	}
}

func TestBridgesOnStarAndComplete(t *testing.T) {
	star := gen.Star(6)
	b := Bridges(star)
	for id, isB := range b {
		if !isB {
			t.Errorf("star: edge %d should be a bridge", id)
		}
	}
	k5 := gen.Complete(5)
	for id, isB := range Bridges(k5) {
		if isB {
			t.Errorf("K5: edge %d flagged bridge", id)
		}
	}
}

func TestBiCCRootIsAP(t *testing.T) {
	// Two triangles sharing vertex 0: 0 is an AP and is the DFS root.
	g := graph.BuildUndirected(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	res := BiCC(g)
	if !res.IsAP[0] {
		t.Errorf("shared vertex 0 should be an AP")
	}
	if res.NumBlocks != 2 {
		t.Errorf("NumBlocks = %d, want 2", res.NumBlocks)
	}
	for _, v := range []graph.V{1, 2, 3, 4} {
		if res.IsAP[v] {
			t.Errorf("vertex %d should not be an AP", v)
		}
	}
}

func TestBarbell(t *testing.T) {
	g := gen.BarbellWithBridge(4)
	res := BiCC(g)
	if !res.IsAP[3] || !res.IsAP[4] {
		t.Errorf("bridge endpoints should be APs")
	}
	if res.NumBlocks != 3 {
		t.Errorf("NumBlocks = %d, want 3 (two cliques + bridge)", res.NumBlocks)
	}
	bridges := Bridges(g)
	nb := 0
	for _, b := range bridges {
		if b {
			nb++
		}
	}
	if nb != 1 {
		t.Errorf("bridge count = %d, want 1", nb)
	}
}
