package aquila

// A directed engine's connectivity census runs on its out- and in-CSRs:
// the point and census queries, the first Apply's seed and threshold
// rebuilds never build the undirected view, on the engine and through a
// Server alike, and reordered engines leave edge ids unbuilt until an
// edge-indexed query asks for them.

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/cc"
	"aquila/internal/dyn"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// ccAnswers is one round of the point and census queries.
type ccAnswers struct {
	connected bool
	count     int
	labels    []uint32
	largest   int
	hist      map[int]int
	isConn    bool
}

// oracleAnswers computes ccAnswers for arcs over n vertices with the serial
// WCC oracle; probe is the Connected pair.
func oracleAnswers(n int, arcs []Edge, probe [2]V) ccAnswers {
	label := serialdfs.WCC(NewDirected(n, arcs))
	sizes := make(map[uint32]int)
	for _, l := range label {
		sizes[l]++
	}
	a := ccAnswers{connected: label[probe[0]] == label[probe[1]], count: len(sizes),
		labels: label, hist: make(map[int]int), isConn: len(sizes) == 1}
	for _, s := range sizes {
		a.largest = max(a.largest, s)
		a.hist[s]++
	}
	return a
}

func (a ccAnswers) equal(b ccAnswers) bool {
	return a.connected == b.connected && a.count == b.count && slices.Equal(a.labels, b.labels) &&
		a.largest == b.largest && maps.Equal(a.hist, b.hist) && a.isConn == b.isConn
}

// engineAnswers asks the engine, WCC and CC both.
func engineAnswers(t *testing.T, e *Engine, probe [2]V) ccAnswers {
	t.Helper()
	a := ccAnswers{connected: e.Connected(probe[0], probe[1]), count: e.CountCC(), labels: e.CC().Label,
		largest: e.LargestCC().Size, hist: e.CCSizeHistogram(), isConn: e.IsConnected()}
	if !slices.Equal(e.WCC().Label, a.labels) {
		t.Fatal("WCC and CC disagree")
	}
	return a
}

func serverAnswers(t *testing.T, s *Server, probe [2]V) ccAnswers {
	t.Helper()
	ctx := context.Background()
	var a ccAnswers
	var err error
	check := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	a.connected, err = s.Connected(ctx, probe[0], probe[1])
	check(err)
	a.count, err = s.CountCC(ctx)
	check(err)
	res, err := s.CC(ctx)
	check(err)
	a.labels = res.Label
	l, err := s.LargestCC(ctx)
	check(err)
	a.largest = l.Size
	a.hist, err = s.CCSizeHistogram(ctx)
	check(err)
	a.isConn, err = s.IsConnected(ctx)
	check(err)
	return a
}

// arcsOf lists d's arcs.
func arcsOf(d *Directed) []Edge {
	var arcs []Edge
	off, adj := d.OutCSR()
	for u := 0; u < d.NumVertices(); u++ {
		for _, v := range adj[off[u]:off[u+1]] {
			arcs = append(arcs, Edge{U: V(u), V: v})
		}
	}
	return arcs
}

// undirectedBuilt reports whether any graph the engine holds has built its
// undirected view.
func (e *Engine) undirectedBuilt() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dir.UndirectedBuilt() || (e.origDir != nil && e.origDir.UndirectedBuilt())
}

// TestDirectedCensusNeverUndirects: on epoch 0, after insert-only Applies and
// after a threshold rebuild, a directed engine and a Server over one answer
// Connected, CountCC, CC/WCC, LargestCC, CCSizeHistogram and IsConnected
// exactly, and the graph's undirected view is never built. The auto case is
// big enough for the chooser to pick a union-find cell; the small one names
// a union-find cell explicitly.
func TestDirectedCensusNeverUndirects(t *testing.T) {
	cases := []struct {
		name string
		g    func() *Directed
		opt  Options
	}{
		{"auto", func() *Directed {
			return gen.Social(gen.SocialConfig{GiantVertices: 6000, GiantAvgDeg: 5, SmallComps: 300,
				SmallMaxSize: 6, Isolated: 200, MutualFrac: 0.5, Seed: 31})
		}, Options{Threads: 2, RebuildThreshold: 0.05}},
		{"explicit", func() *Directed { return gen.Random(700, 900, 32) },
			Options{Threads: 2, CCPolicy: "kout+uf-rem", RebuildThreshold: 0.05}},
	}
	for _, c := range cases {
		for _, viaServer := range []bool{false, true} {
			d := c.g()
			n := d.NumVertices()
			e := NewDirectedEngine(d, c.opt)
			if pol, _ := cc.ParsePolicy(e.CCPolicy()); !pol.UnionFind() {
				t.Fatalf("%s: cell %s is not a union-find cell", c.name, e.CCPolicy())
			}
			var s *Server
			if viaServer {
				s = NewServer(e, ServerConfig{})
			}
			arcs := arcsOf(d)
			rng := gen.NewRNG(7)
			probe := [2]V{V(rng.Intn(n)), V(rng.Intn(n))}
			check := func(stage string) {
				t.Helper()
				want := oracleAnswers(n, arcs, probe)
				var got ccAnswers
				if viaServer {
					got = serverAnswers(t, s, probe)
				} else {
					got = engineAnswers(t, e, probe)
				}
				if !got.equal(want) {
					t.Fatalf("%s server=%v %s: answers differ from the WCC oracle", c.name, viaServer, stage)
				}
				if e.undirectedBuilt() || d.UndirectedBuilt() {
					t.Fatalf("%s server=%v %s: the undirected view was built", c.name, viaServer, stage)
				}
			}
			apply := func(k int) *ApplyResult {
				t.Helper()
				batch := make([]Edge, k)
				for i := range batch {
					batch[i] = Edge{U: V(rng.Intn(n)), V: V(rng.Intn(n))}
				}
				arcs = append(arcs, batch...)
				var res *ApplyResult
				var err error
				if viaServer {
					res, err = s.Apply(batch)
				} else {
					res, err = e.Apply(batch)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			check("epoch 0")
			for i := 0; i < 3; i++ {
				if apply(4).Rebuilt {
					t.Fatalf("%s: a 4-edge batch rebuilt", c.name)
				}
				probe = [2]V{arcs[len(arcs)-1].U, V(rng.Intn(n))}
				check("after insert-only Applies")
			}
			if !apply(n / 2).Rebuilt {
				t.Fatalf("%s: a batch of %d edges did not cross the rebuild threshold", c.name, n/2)
			}
			check("after a threshold rebuild")
		}
	}
}

// TestDirectedBootAllocIndependentOfArcs: NewDirectedEngine plus the first
// census allocate the same on two graphs with one vertex count and one
// component layout, one of them with 4x the arcs: nothing the boot keeps
// grows with |E|.
func TestDirectedBootAllocIndependentOfArcs(t *testing.T) {
	const n, block = 1 << 15, 64
	build := func(chords int) *Directed {
		rng := gen.NewRNG(5)
		var edges []Edge
		for b := 0; b < n; b += block {
			for i := 0; i < block; i++ {
				edges = append(edges, Edge{U: V(b + i), V: V(b + (i+1)%block)})
			}
			for i := 0; i < block*chords; i++ {
				edges = append(edges, Edge{U: V(b + rng.Intn(block)), V: V(b + rng.Intn(block))})
			}
		}
		return NewDirected(n, edges)
	}
	boot := func(d *Directed) uint64 {
		var before, after runtime.MemStats
		best := ^uint64(0)
		for r := 0; r < 3; r++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			e := NewDirectedEngine(d, Options{Threads: 1})
			if got := e.CountCC(); got != n/block {
				t.Fatalf("%d components, want %d", got, n/block)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
			if e.undirectedBuilt() {
				t.Fatal("the boot census built the undirected view")
			}
		}
		return best
	}
	sparse, dense := build(1), build(7)
	small, large := boot(sparse), boot(dense)
	t.Logf("boot + census: %d B at %d arcs, %d B at %d arcs", small, sparse.NumArcs(), large, dense.NumArcs())
	if large > small+64<<10 {
		t.Fatalf("boot + census allocate %d B at %d arcs vs %d B at %d: something grows with |E|",
			large, dense.NumArcs(), small, sparse.NumArcs())
	}
}

// TestPromoteFromUnionRows: a directed engine's promotion, which merges each
// undirected row from Out and In on the fly, builds the same forest as
// linking every edge of Undirect's CSR in row order — edge by edge, the same
// level and tree flag — and leaves the undirected view unbuilt.
func TestPromoteFromUnionRows(t *testing.T) {
	d := gen.Social(gen.SocialConfig{GiantVertices: 3000, GiantAvgDeg: 5, SmallComps: 150,
		SmallMaxSize: 6, Isolated: 60, MutualFrac: 0.5, Seed: 41})
	e := NewDirectedEngine(d, Options{Threads: 2})
	e.mu.Lock()
	e.promoteDynLocked()
	f := e.dyn
	e.mu.Unlock()
	if e.undirectedBuilt() {
		t.Fatal("promotion built the undirected view")
	}

	u := graph.Undirect(d)
	ref := dyn.NewForestSized(u.NumVertices(), int(u.NumEdges()))
	off, adj := u.CSR()
	for v := 0; v < u.NumVertices(); v++ {
		for _, w := range adj[off[v]:off[v+1]] {
			if V(v) < w {
				ref.Link(V(v), w)
			}
		}
	}
	if f.NumEdges() != ref.NumEdges() || f.ComponentCount() != ref.ComponentCount() {
		t.Fatalf("forest has %d edges / %d components, CSR walk %d / %d",
			f.NumEdges(), f.ComponentCount(), ref.NumEdges(), ref.ComponentCount())
	}
	for _, ep := range u.EdgeEndpoints() {
		l, tree, ok := f.EdgeState(ep[0], ep[1])
		wl, wtree, _ := ref.EdgeState(ep[0], ep[1])
		if !ok || l != wl || tree != wtree {
			t.Fatalf("edge %v: level %d tree %v (live %v), CSR walk level %d tree %v", ep, l, tree, ok, wl, wtree)
		}
	}
}

// TestReorderedEdgeIDsOnDemand: reordered engines, undirected and directed,
// answer the connectivity queries and an insert-only Apply without building
// either undirected CSR's edge ids; the first bridge query builds them.
func TestReorderedEdgeIDsOnDemand(t *testing.T) {
	d := gen.Random(3000, 6000, 43)
	wantBridges := 0
	for _, b := range serialdfs.Bridges(graph.Undirect(NewDirected(3000, append(arcsOf(d), Edge{U: 3, V: 4}, Edge{U: 5, V: 2999})))) {
		if b {
			wantBridges++
		}
	}
	for _, directed := range []bool{false, true} {
		opt := Options{Threads: 2, Reorder: ReorderDegree, RebuildThreshold: -1}
		var e *Engine
		if directed {
			e = NewDirectedEngine(d, opt)
		} else {
			e = NewEngine(graph.Undirect(d), opt)
		}
		// A cold IsConnected walks the undirected view, so a directed engine
		// builds it here; edge ids it does not need.
		e.IsConnected()
		e.Connected(1, 2)
		e.CC()
		e.LargestCC()
		e.CCSizeHistogram()
		if _, err := e.Apply([]Edge{{U: 3, V: 4}, {U: 5, V: 2999}}); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		v := e.undirectedOf(e.base())
		e.mu.Unlock()
		if v.und.EdgeIDsBuilt() || v.origUnd.EdgeIDsBuilt() {
			t.Fatalf("directed=%v: connectivity queries built edge ids", directed)
		}
		if got := len(e.Bridges()); got != wantBridges {
			t.Fatalf("directed=%v: %d bridges, oracle %d", directed, got, wantBridges)
		}
		e.mu.Lock()
		v = e.undirectedOf(e.base())
		e.mu.Unlock()
		if !v.und.EdgeIDsBuilt() || !v.origUnd.EdgeIDsBuilt() {
			t.Fatalf("directed=%v: bridges remapped without both CSRs' edge ids", directed)
		}
	}
}
