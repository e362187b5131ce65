package aquila

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

func paperEngine(opt Options) *Engine {
	return NewDirectedEngine(gen.PaperExample(), opt)
}

func TestEngineCCAndWCC(t *testing.T) {
	e := paperEngine(Options{Threads: 2})
	res := e.CC()
	if res.NumComponents != 3 {
		t.Fatalf("NumComponents = %d, want 3", res.NumComponents)
	}
	if e.WCC() != res {
		t.Errorf("WCC should return the cached CC result")
	}
}

func TestEngineSCC(t *testing.T) {
	e := paperEngine(Options{Threads: 2})
	res, err := e.SCC()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 6 {
		t.Errorf("SCC count = %d, want 6", res.NumComponents)
	}
	// Undirected engine: SCC must error.
	ue := NewEngine(gen.PaperExampleUndirected(), Options{})
	if _, err := ue.SCC(); err != ErrNotDirected {
		t.Errorf("undirected SCC error = %v, want ErrNotDirected", err)
	}
	if _, err := ue.IsStronglyConnected(); err != ErrNotDirected {
		t.Errorf("undirected IsStronglyConnected error = %v", err)
	}
	if _, err := ue.LargestSCC(); err != ErrNotDirected {
		t.Errorf("undirected LargestSCC error = %v", err)
	}
}

func TestEngineBiCCAndBgCC(t *testing.T) {
	e := paperEngine(Options{Threads: 2})
	if got := e.BiCC().NumBlocks; got != 6 {
		t.Errorf("BiCC blocks = %d, want 6", got)
	}
	if got := e.BgCC().NumComponents; got != 6 {
		t.Errorf("BgCC count = %d, want 6", got)
	}
}

func TestIsConnectedPartialVsComplete(t *testing.T) {
	cases := map[string]*Undirected{
		"paper":     gen.PaperExampleUndirected(),
		"cycle":     gen.Cycle(12),
		"path":      gen.Path(12),
		"single":    NewUndirected(1, nil),
		"empty":     NewUndirected(0, nil),
		"orphan":    NewUndirected(3, []Edge{{U: 0, V: 1}}),
		"pairPlus":  NewUndirected(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
		"justPair":  NewUndirected(2, []Edge{{U: 0, V: 1}}),
		"connected": gen.RandomUndirected(200, 2000, 31),
		"scattered": gen.RandomUndirected(200, 150, 32),
	}
	for name, g := range cases {
		want := NewEngine(g, Options{DisablePartial: true}).IsConnected()
		got := NewEngine(g, Options{}).IsConnected()
		if got != want {
			t.Errorf("%s: partial IsConnected = %v, complete says %v", name, got, want)
		}
	}
}

func TestIsStronglyConnectedPartialVsComplete(t *testing.T) {
	cases := map[string]*Directed{
		"paper":  gen.PaperExample(),
		"cycle":  NewDirected(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}}),
		"dag":    NewDirected(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		"single": NewDirected(1, nil),
		"random": gen.Random(150, 1500, 33),
	}
	for name, g := range cases {
		want, _ := NewDirectedEngine(g, Options{DisablePartial: true}).IsStronglyConnected()
		got, err := NewDirectedEngine(g, Options{}).IsStronglyConnected()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: partial = %v, complete = %v", name, got, want)
		}
	}
}

func TestLargestCCPartialPath(t *testing.T) {
	g := gen.PaperExampleUndirected()
	e := NewEngine(g, Options{Threads: 2})
	res := e.LargestCC()
	if !res.Partial {
		t.Errorf("majority component should be found partially")
	}
	if res.Size != 8 {
		t.Errorf("Size = %d, want 8", res.Size)
	}
	for _, v := range []V{0, 2, 3, 4, 5, 6, 7, 1} {
		if !res.Contains(v) {
			t.Errorf("vertex %d should be in the largest CC", v)
		}
	}
	if res.Contains(12) || res.Contains(8) {
		t.Errorf("other components leaked into the largest")
	}
	if !e.InLargestCC(5) || e.InLargestCC(13) {
		t.Errorf("InLargestCC wrong")
	}
}

func TestLargestCCFallback(t *testing.T) {
	// Max-degree vertex in a minority component: star of 5 + larger sparse
	// component of 10 path vertices (max degree 4 < star center).
	var edges []Edge
	for i := 1; i <= 4; i++ {
		edges = append(edges, Edge{U: 0, V: V(i)})
	}
	for i := 5; i < 14; i++ {
		edges = append(edges, Edge{U: V(i), V: V(i + 1)})
	}
	g := NewUndirected(15, edges)
	e := NewEngine(g, Options{Threads: 2})
	res := e.LargestCC()
	if res.Size != 10 {
		t.Fatalf("Size = %d, want 10 (path component)", res.Size)
	}
	if res.Contains(0) {
		t.Errorf("star center is not in the largest component")
	}
	if !res.Contains(7) {
		t.Errorf("path member missing")
	}
}

func TestLargestSCC(t *testing.T) {
	e := paperEngine(Options{Threads: 2})
	res, err := e.LargestSCC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 7 {
		t.Errorf("largest SCC size = %d, want 7", res.Size)
	}
	if !res.Contains(5) || res.Contains(1) {
		t.Errorf("membership wrong")
	}
}

func TestArticulationPointsAndBridges(t *testing.T) {
	for _, opt := range []Options{{}, {DisablePartial: true}, {DisableSPO: true}, {DisableTrim: true}} {
		e := paperEngine(opt)
		aps := e.ArticulationPoints()
		if len(aps) != 2 || aps[0] != 5 || aps[1] != 9 {
			t.Fatalf("%+v: APs = %v, want [5 9]", opt, aps)
		}
		if !e.IsArticulationPoint(5) || e.IsArticulationPoint(0) {
			t.Errorf("%+v: IsArticulationPoint wrong", opt)
		}
		bridges := e.Bridges()
		if len(bridges) != 3 {
			t.Fatalf("%+v: bridges = %v, want 3 of them", opt, bridges)
		}
		seen := map[[2]V]bool{}
		for _, b := range bridges {
			seen[b] = true
		}
		for _, want := range [][2]V{{1, 5}, {9, 11}, {12, 13}} {
			if !seen[want] {
				t.Errorf("%+v: bridge %v missing", opt, want)
			}
		}
	}
}

func TestCCSizeHistogram(t *testing.T) {
	e := paperEngine(Options{})
	hist := e.CCSizeHistogram()
	if hist[8] != 1 || hist[4] != 1 || hist[2] != 1 {
		t.Errorf("histogram = %v, want {8:1, 4:1, 2:1}", hist)
	}
}

func TestEngineResultsMatchOracleOnRandom(t *testing.T) {
	for seed := uint64(40); seed < 44; seed++ {
		d := gen.Random(150, 400, seed)
		e := NewDirectedEngine(d, Options{Threads: 3})
		u := e.Undirected()
		if err := verify.SamePartition(e.CC().Label, serialdfs.CC(u)); err != nil {
			t.Fatalf("seed %d CC: %v", seed, err)
		}
		sccRes, _ := e.SCC()
		if err := verify.SamePartition(sccRes.Label, serialdfs.SCC(d)); err != nil {
			t.Fatalf("seed %d SCC: %v", seed, err)
		}
		truth := serialdfs.BiCC(u)
		if err := verify.SameBoolSet(e.BiCC().IsAP, truth.IsAP, "aps"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.BridgeSetEqual(e.BgCC().IsBridge, serialdfs.Bridges(u)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEngineCachingIdentity(t *testing.T) {
	e := paperEngine(Options{})
	if e.CC() != e.CC() {
		t.Errorf("CC result not cached")
	}
	a, _ := e.SCC()
	b, _ := e.SCC()
	if a != b {
		t.Errorf("SCC result not cached")
	}
	if e.BiCC() != e.BiCC() || e.BgCC() != e.BgCC() {
		t.Errorf("BiCC/BgCC results not cached")
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	e := paperEngine(Options{Threads: 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				if e.CountCC() != 3 {
					t.Errorf("CountCC wrong under concurrency")
				}
			case 1:
				if got, _ := e.SCC(); got.NumComponents != 6 {
					t.Errorf("SCC wrong under concurrency")
				}
			case 2:
				if len(e.ArticulationPoints()) != 2 {
					t.Errorf("APs wrong under concurrency")
				}
			case 3:
				if !e.InLargestCC(5) {
					t.Errorf("InLargestCC wrong under concurrency")
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestLoadEdgeListAPI(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n# comment\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	e := NewDirectedEngine(g, Options{})
	if ok, _ := e.IsStronglyConnected(); !ok {
		t.Errorf("triangle should be strongly connected")
	}
	u, err := LoadUndirectedEdgeList(strings.NewReader("0 1\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if NewEngine(u, Options{}).IsConnected() {
		t.Errorf("two pairs are not connected")
	}
	if _, err := LoadEdgeList(strings.NewReader("bogus\n")); err == nil {
		t.Errorf("want parse error")
	}
}

func TestEngineTraversalVariants(t *testing.T) {
	d := gen.Social(gen.SocialConfig{
		GiantVertices: 500, GiantAvgDeg: 5,
		SmallComps: 25, SmallMaxSize: 6, Isolated: 10,
		MutualFrac: 0.4, Seed: 55,
	})
	want := NewDirectedEngine(d, Options{}).CC().NumComponents
	for _, tr := range []Traversal{TraversalEnhanced, TraversalDirOpt, TraversalPlain} {
		e := NewDirectedEngine(d, Options{Traversal: tr, Threads: 2})
		if got := e.CC().NumComponents; got != want {
			t.Errorf("traversal %v: CC count %d, want %d", tr, got, want)
		}
		scc, err := e.SCC()
		if err != nil || scc.NumComponents == 0 {
			t.Errorf("traversal %v: SCC failed: %v", tr, err)
		}
	}
	// Technique toggles must not change answers either.
	for _, opt := range []Options{
		{DisableTrim: true}, {DisableSPO: true}, {DisableAdaptive: true},
		{DisableTrim: true, DisableSPO: true, DisableAdaptive: true},
	} {
		e := NewDirectedEngine(d, opt)
		if got := e.CC().NumComponents; got != want {
			t.Errorf("%+v: CC count %d, want %d", opt, got, want)
		}
	}
}

func TestFormatLoadersAPI(t *testing.T) {
	mtx := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
	g, err := LoadMatrixMarket(strings.NewReader(mtx))
	if err != nil {
		t.Fatal(err)
	}
	if !NewDirectedEngine(g, Options{}).IsConnected() {
		t.Errorf("mtx path graph should be connected")
	}
	metis := "3 2\n2\n1 3\n2\n"
	u, err := LoadMETIS(strings.NewReader(metis))
	if err != nil {
		t.Fatal(err)
	}
	if !NewEngine(u, Options{}).IsConnected() {
		t.Errorf("metis path graph should be connected")
	}
	if _, err := LoadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Errorf("junk mtx accepted")
	}
}

// cacheState snapshots which results the engine's current epoch holds (set)
// and their identities (id), so tests can assert exactly which results an
// Apply batch's next epoch inherited versus dropped.
func cacheState(e *Engine) (set map[string]bool, id map[string]string) {
	e.mu.Lock()
	ep := e.epochLocked().epoch
	e.mu.Unlock()
	return epochCells(ep)
}

var cacheKeys = []string{"cc", "largest", "scc", "cond", "bicc", "bgcc", "apOnly", "brOnly", "btw", "core"}

// TestEngineCacheInvalidationOnApply checks Apply's documented invalidation
// contract against every cached result, for both the partial and
// DisablePartial configurations: duplicate batches preserve everything,
// arc-only batches drop only the SCC-derived caches, intra-component edges
// preserve the CC-derived caches but drop the 2-connectivity ones, and
// merging edges drop both groups.
func TestEngineCacheInvalidationOnApply(t *testing.T) {
	g := gen.PaperExample()
	u := graph.Undirect(g)
	lab := serialdfs.CC(u)

	// Probe edges discovered from the graph itself, so the test does not
	// hard-code the paper example's arc directions.
	var dup, rev, intra, merge Edge
	found := 0
	for v := 0; v < g.NumVertices() && found < 2; v++ {
		for _, w := range g.Out(V(v)) {
			dup = Edge{U: V(v), V: w}
			found |= 1
			if !g.HasArc(w, V(v)) {
				rev = Edge{U: w, V: V(v)}
				found |= 2
			}
			if found == 3 {
				break
			}
		}
	}
	if found != 3 {
		t.Fatal("no probe arcs found")
	}
	foundIntra, foundMerge := false, false
	for a := 0; a < u.NumVertices(); a++ {
		for b := a + 1; b < u.NumVertices(); b++ {
			if u.HasEdge(V(a), V(b)) {
				continue
			}
			if lab[a] == lab[b] && !foundIntra {
				intra, foundIntra = Edge{U: V(a), V: V(b)}, true
			}
			if lab[a] != lab[b] && !foundMerge {
				merge, foundMerge = Edge{U: V(a), V: V(b)}, true
			}
		}
	}
	if !foundIntra || !foundMerge {
		t.Fatal("no probe edges found")
	}

	inv := func(keys ...string) map[string]bool {
		m := map[string]bool{}
		for _, k := range keys {
			m[k] = true
		}
		return m
	}
	twoConn := []string{"bicc", "bgcc", "apOnly", "brOnly", "btw", "core"}
	cases := []struct {
		name        string
		batch       []Edge
		invalidated map[string]bool
	}{
		{"duplicateArc", []Edge{dup}, inv()},
		{"reverseArcOnly", []Edge{rev}, inv("scc", "cond")},
		{"intraComponentEdge", []Edge{intra}, inv(append([]string{"scc", "cond"}, twoConn...)...)},
		{"mergingEdge", []Edge{merge}, inv(cacheKeys...)},
	}
	for _, disablePartial := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("partial=%v/%s", !disablePartial, tc.name), func(t *testing.T) {
				e := NewDirectedEngine(gen.PaperExample(),
					Options{Threads: 2, DisablePartial: disablePartial, RebuildThreshold: -1})
				// Warm every cache.
				e.CC()
				e.SCC()
				e.BiCC()
				e.BgCC()
				e.ArticulationPoints()
				e.Bridges()
				e.InLargestCC(0)
				e.Condensation()
				e.BetweennessCentrality()
				e.Coreness()

				before, beforeID := cacheState(e)
				if _, err := e.Apply(tc.batch); err != nil {
					t.Fatal(err)
				}
				after, afterID := cacheState(e)
				for _, k := range cacheKeys {
					if tc.invalidated[k] {
						if after[k] {
							t.Errorf("cache %q should have been invalidated", k)
						}
					} else if after[k] != before[k] || (before[k] && afterID[k] != beforeID[k]) {
						t.Errorf("cache %q should have been preserved", k)
					}
				}

				// Whatever was dropped must recompute to the truth.
				if err := verify.SamePartition(e.CC().Label, serialdfs.CC(e.Undirected())); err != nil {
					t.Errorf("CC after Apply: %v", err)
				}
				sccRes, err := e.SCC()
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.SamePartition(sccRes.Label, serialdfs.SCC(e.Directed())); err != nil {
					t.Errorf("SCC after Apply: %v", err)
				}
			})
		}
	}
}

func TestUndirectedViewExposed(t *testing.T) {
	e := paperEngine(Options{})
	if e.Undirected() == nil || e.Directed() == nil {
		t.Errorf("views missing")
	}
	ue := NewEngine(gen.Cycle(4), Options{})
	if ue.Directed() != nil {
		t.Errorf("undirected engine exposes a directed graph")
	}
	_ = graph.NoVertex
}

// TestEdgeIDsLazy pins what the edge-id index is not built for: graph-level
// counting, adjacency tests and endpoint listing, and the connectivity
// serving path of directed and undirected engines — insert-only Apply,
// IsConnected, Connected, CC, LargestCC and the histogram answer from the
// CSR and the census alone.
func TestEdgeIDsLazy(t *testing.T) {
	d := gen.Random(2000, 4000, 3)
	var batches [][]Edge
	for i := 0; i < 4; i++ {
		batches = append(batches, []Edge{{U: V(i), V: V(1000 + i)}, {U: V(1999 - i), V: V(7 * i)}})
	}
	wantBridges := 0
	for _, b := range serialdfs.Bridges(graph.Undirect(NewDirected(2000, append(arcsOf(d), slices.Concat(batches...)...)))) {
		if b {
			wantBridges++
		}
	}
	opt := Options{Threads: 2, RebuildThreshold: -1}
	for _, e := range []*Engine{NewDirectedEngine(d, opt), NewEngine(graph.Undirect(d), opt)} {
		name := "undirected"
		if e.directed {
			name = "directed"
		}
		u := e.Undirected()
		if u.NumEdges() == 0 || len(u.EdgeEndpoints()) != int(u.NumEdges()) {
			t.Fatalf("%s: endpoint listing disagrees with NumEdges %d", name, u.NumEdges())
		}
		ep := u.EdgeEndpoints()[0]
		if !u.HasEdge(ep[1], ep[0]) || u.HasEdge(ep[0], ep[0]) {
			t.Fatalf("%s: HasEdge wrong on an endpoint pair", name)
		}
		e.IsConnected()
		e.CC()
		e.CCSizeHistogram()
		for i, batch := range batches {
			if _, err := e.Apply(batch); err != nil {
				t.Fatal(err)
			}
			if !e.Connected(V(i), V(1000+i)) {
				t.Fatalf("%s batch %d: inserted edge endpoints not connected", name, i)
			}
			if e.LargestCC().Size == 0 {
				t.Fatalf("%s batch %d: empty largest component", name, i)
			}
		}
		if u.EdgeIDsBuilt() {
			t.Fatalf("%s: connectivity serving built the edge-id index", name)
		}
		// The first edge-indexed query pays the build.
		if got := len(e.Bridges()); got != wantBridges {
			t.Fatalf("%s: %d bridges, oracle %d", name, got, wantBridges)
		}
		if !e.Undirected().EdgeIDsBuilt() {
			t.Fatalf("%s: Bridges ran without the edge-id index", name)
		}
	}
}

// TestEngineLargestCCContainsOutOfRange mirrors the snapshot-layer
// regression on the Engine path: every LargestCC/LargestSCC contains closure
// (partial traversal, census fallback) must answer false for out-of-range
// vertices instead of indexing the bitmap or the label array past its end.
func TestEngineLargestCCContainsOutOfRange(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}}
	const n = 10
	for _, disablePartial := range []bool{false, true} {
		e := NewEngine(NewUndirected(n, edges), Options{Threads: 2, DisablePartial: disablePartial})
		res := e.LargestCC()
		if res.Size != 8 || !res.Contains(0) || res.Contains(9) {
			t.Fatalf("partial=%v: in-range answers wrong", !disablePartial)
		}
		for _, v := range []V{n, 1 << 20, graph.NoVertex} {
			if res.Contains(v) {
				t.Fatalf("partial=%v: Contains(%d) = true out of range", !disablePartial, v)
			}
		}
		if e.InLargestCC(graph.NoVertex) {
			t.Fatalf("partial=%v: InLargestCC out of range = true", !disablePartial)
		}
	}
	d := NewDirectedEngine(NewDirected(n, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 4}}),
		Options{Threads: 2})
	sres, err := d.LargestSCC()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []V{n, graph.NoVertex} {
		if sres.Contains(v) {
			t.Fatalf("LargestSCC.Contains(%d) = true out of range", v)
		}
	}
}
