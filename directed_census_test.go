package aquila

// A directed engine's connectivity census is a union-find over its out-arcs:
// the point and census queries, cold IsConnected and LargestCC, the first
// Apply's seed and threshold rebuilds build neither the in-CSR nor the
// undirected view, on the engine and through a Server alike; the queries
// that walk them build each once per base.

import (
	"bytes"
	"context"
	"fmt"
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

// undirectedBuilt reports whether the engine's base graph has built its
// undirected view.
func (e *Engine) undirectedBuilt() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dir.UndirectedBuilt()
}

// inBuilt reports whether the engine's base graph has built its in-CSR.
func (e *Engine) inBuilt() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dir.InBuilt()
}

// baseIn returns the first in-adjacency slot of the engine's base graph,
// which identifies the in-CSR the base holds.
func (e *Engine) baseIn() *V {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, adj := e.dir.InCSR()
	return &adj[0]
}

// TestDirectedCensusNeverUndirects: on epoch 0, after insert-only Applies and
// after a threshold rebuild, a directed engine and a Server over one answer
// Connected, CountCC, CC/WCC, LargestCC, CCSizeHistogram and IsConnected
// exactly, and neither the graph's in-CSR nor its undirected view is ever
// built. The auto case is big enough for the chooser to pick a union-find
// cell; the small one names a union-find cell explicitly. Afterwards SCC,
// BiCC and Undirected build the in-CSR once for the base, and an Apply's
// next epoch on that base keeps it.
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
			Options{Threads: 2, CCPolicy: "afforest+uf-async", RebuildThreshold: 0.05}},
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
			check := func(stage string, unbuilt bool) {
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
				e.CCPolicy()
				if unbuilt && (e.undirectedBuilt() || d.UndirectedBuilt() || e.inBuilt() || d.InBuilt()) {
					t.Fatalf("%s server=%v %s: the undirected view or the in-CSR was built", c.name, viaServer, stage)
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

			check("epoch 0", true)
			for i := 0; i < 3; i++ {
				if apply(4).Rebuilt {
					t.Fatalf("%s: a 4-edge batch rebuilt", c.name)
				}
				probe = [2]V{arcs[len(arcs)-1].U, V(rng.Intn(n))}
				check("after insert-only Applies", true)
			}
			if !apply(n / 2).Rebuilt {
				t.Fatalf("%s: a batch of %d edges did not cross the rebuild threshold", c.name, n/2)
			}
			check("after a threshold rebuild", true)

			ctx := context.Background()
			if viaServer {
				if _, err := s.SCC(ctx); err != nil {
					t.Fatal(err)
				}
			} else if _, err := e.SCC(); err != nil {
				t.Fatal(err)
			}
			if !e.inBuilt() {
				t.Fatalf("%s server=%v: SCC ran without the in-CSR", c.name, viaServer)
			}
			in := e.baseIn()
			if viaServer {
				if _, err := s.BiCC(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				e.BiCC()
			}
			e.Undirected()
			if e.baseIn() != in {
				t.Fatalf("%s server=%v: BiCC or Undirected built a second in-CSR", c.name, viaServer)
			}
			apply(2)
			if viaServer {
				if _, err := s.SCC(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if e.baseIn() != in {
				t.Fatalf("%s server=%v: the next epoch built a second in-CSR", c.name, viaServer)
			}
			check("after SCC, BiCC and Undirected", false)
		}
	}
}

// TestColdDirectedPartialsUseCensus: on a directed engine whose census is a
// union-find cell, a cold IsConnected or LargestCC — on the engine or as
// the first query a Server answers — answers as the WCC oracle does from
// that census, building neither the in-CSR nor the undirected view.
func TestColdDirectedPartialsUseCensus(t *testing.T) {
	ring := func(n int) *Directed {
		edges := make([]Edge, 0, 2*n)
		for v := 0; v < n; v++ {
			edges = append(edges, Edge{U: V(v), V: V((v + 1) % n)}, Edge{U: V((v * 7) % n), V: V(v)})
		}
		return NewDirected(n, edges)
	}
	cases := []struct {
		name string
		g    func() *Directed
		opt  Options
	}{
		{"auto/scattered", func() *Directed {
			return gen.Social(gen.SocialConfig{GiantVertices: 6000, GiantAvgDeg: 5, SmallComps: 300,
				SmallMaxSize: 6, Isolated: 200, MutualFrac: 0.5, Seed: 33})
		}, Options{Threads: 2}},
		{"auto/connected", func() *Directed { return ring(5000) }, Options{Threads: 2}},
		{"explicit", func() *Directed { return gen.Random(700, 900, 34) }, Options{Threads: 2, CCPolicy: "none+uf-async"}},
	}
	for _, c := range cases {
		for _, viaServer := range []bool{false, true} {
			for _, first := range []string{"IsConnected", "LargestCC"} {
				d := c.g()
				n := d.NumVertices()
				want := oracleAnswers(n, arcsOf(d), [2]V{0, 0})
				e := NewDirectedEngine(d, c.opt)
				var s *Server
				if viaServer {
					s = NewServer(e, ServerConfig{})
				}
				ask := func(q string) {
					t.Helper()
					switch {
					case q == "IsConnected" && viaServer:
						got, err := s.IsConnected(context.Background())
						if err != nil || got != want.isConn {
							t.Fatalf("%s server: IsConnected = %v, %v, want %v", c.name, got, err, want.isConn)
						}
					case q == "IsConnected":
						if got := e.IsConnected(); got != want.isConn {
							t.Fatalf("%s: IsConnected = %v, want %v", c.name, got, want.isConn)
						}
					default:
						var l *LargestResult
						if viaServer {
							var err error
							if l, err = s.LargestCC(context.Background()); err != nil {
								t.Fatal(err)
							}
						} else {
							l = e.LargestCC()
						}
						if l.Size != want.largest || l.Partial {
							t.Fatalf("%s server=%v: LargestCC size %d partial %v, want %d from the census",
								c.name, viaServer, l.Size, l.Partial, want.largest)
						}
						for v := 0; v < n; v++ {
							if l.Contains(V(v)) != (want.labels[v] == want.labels[l.Pivot]) {
								t.Fatalf("%s server=%v: LargestCC.Contains(%d) wrong", c.name, viaServer, v)
							}
						}
					}
				}
				ask(first)
				if e.inBuilt() || e.undirectedBuilt() {
					t.Fatalf("%s server=%v: a cold %s built the in-CSR or the undirected view", c.name, viaServer, first)
				}
				ask("IsConnected")
				ask("LargestCC")
			}
		}
	}
}

// TestDirectedBootAllocIndependentOfArcs: NewDirectedEngine plus the first
// census and the first Apply allocate the same on two graphs with one vertex
// count and one component layout, one of them with 4x the arcs: nothing the
// boot builds grows with |E|. Loaded from a text edge list, the two graphs'
// engines then differ in retained heap by the out-CSR's 4 bytes per arc
// alone: no in-CSR is built.
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
	bootOn := func(d *Directed) *Engine {
		e := NewDirectedEngine(d, Options{Threads: 1})
		if got := e.CountCC(); got != n/block {
			t.Fatalf("%d components, want %d", got, n/block)
		}
		if _, err := e.Apply([]Edge{{U: 0, V: 1}, {U: 2, V: 0}}); err != nil {
			t.Fatal(err)
		}
		if e.undirectedBuilt() || e.inBuilt() {
			t.Fatal("the boot census or the first Apply built the undirected view or the in-CSR")
		}
		return e
	}
	boot := func(d *Directed) uint64 {
		var before, after runtime.MemStats
		best := ^uint64(0)
		for r := 0; r < 3; r++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			bootOn(d)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	sparse, dense := build(1), build(7)
	small, large := boot(sparse), boot(dense)
	t.Logf("boot + census + Apply: %d B at %d arcs, %d B at %d arcs", small, sparse.NumArcs(), large, dense.NumArcs())
	if large > small+64<<10 {
		t.Fatalf("boot + census + Apply allocate %d B at %d arcs vs %d B at %d: something grows with |E|",
			large, dense.NumArcs(), small, sparse.NumArcs())
	}

	retained := func(d *Directed) uint64 {
		var text bytes.Buffer
		for _, a := range arcsOf(d) {
			fmt.Fprintf(&text, "%d %d\n", a.U, a.V)
		}
		var before, after runtime.MemStats
		best := ^uint64(0)
		for r := 0; r < 3; r++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			loaded, err := LoadEdgeList(bytes.NewReader(text.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			e := bootOn(loaded)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(e)
			best = min(best, after.HeapAlloc-before.HeapAlloc)
		}
		return best
	}
	small, large = retained(sparse), retained(dense)
	outCSR := 4 * uint64(dense.NumArcs()-sparse.NumArcs())
	t.Logf("text boot retains %d B at %d arcs, %d B at %d arcs", small, sparse.NumArcs(), large, dense.NumArcs())
	if large > small+outCSR+128<<10 {
		t.Fatalf("text boot retains %d B more at %d arcs than at %d; the out-CSR accounts for %d",
			large-small, dense.NumArcs(), sparse.NumArcs(), outCSR)
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
