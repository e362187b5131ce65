package aquila

// Coverage for the signed-delta serving path: dynamic publishes that cost
// O(batch) however many edges the graph has, per-view epochs that drop
// their views once superseded, the §3 partial AP and bridge plans served
// from their own snapshot cells, and a forest promotion whose allocation
// count does not grow with the edge count.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

// layeredEdges returns perComp*comps random edges over n vertices in which
// every edge stays inside its component (vertex v belongs to component
// v mod comps), each component spanned by a path first so the layout is
// exactly comps components.
func layeredEdges(n, comps, perComp int, seed uint64) []Edge {
	rng := gen.NewRNG(seed)
	edges := make([]Edge, 0, n+perComp*comps)
	for v := comps; v < n; v++ {
		edges = append(edges, Edge{U: V(v - comps), V: V(v)})
	}
	size := n / comps
	for i := 0; i < perComp*comps; i++ {
		c := i % comps
		u := V(c + comps*rng.Intn(size))
		w := V(c + comps*rng.Intn(size))
		edges = append(edges, Edge{U: u, V: w})
	}
	return edges
}

// churnBatch returns ops updates on the layout of layeredEdges: deletes of
// live edges and inserts of new edges inside one component, tracked in
// live so that every op is effective.
func churnBatch(rng *gen.RNG, live map[[2]V]struct{}, keys *[][2]V, n, comps, ops int) []Update {
	batch := make([]Update, 0, ops)
	size := n / comps
	for len(batch) < ops {
		if len(batch)%2 == 0 && len(*keys) > 0 {
			i := rng.Intn(len(*keys))
			k := (*keys)[i]
			(*keys)[i] = (*keys)[len(*keys)-1]
			*keys = (*keys)[:len(*keys)-1]
			if _, ok := live[k]; !ok {
				continue
			}
			delete(live, k)
			batch = append(batch, Delete(k[0], k[1]))
			continue
		}
		c := rng.Intn(comps)
		u, w := V(c+comps*rng.Intn(size)), V(c+comps*rng.Intn(size))
		k := [2]V{min(u, w), max(u, w)}
		if _, ok := live[k]; ok || u == w {
			continue
		}
		live[k] = struct{}{}
		*keys = append(*keys, k)
		batch = append(batch, Insert(u, w))
	}
	return batch
}

// TestDynPublishAllocIndependentOfE pins the O(batch) dynamic publish: one
// 100-op Server.ApplyUpdates allocates about the same bytes on two graphs
// with the same vertices and component layout, one with 4x the edges.
// Rebuilding every CSR per publish allocates O(|E|).
func TestDynPublishAllocIndependentOfE(t *testing.T) {
	const n, comps, rounds, trials, ops = 1 << 12, 64, 4, 3, 100
	perPublish := func(perComp int) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < trials; trial++ {
			edges := layeredEdges(n, comps, perComp, 9)
			live := make(map[[2]V]struct{}, len(edges))
			var keys [][2]V
			for _, ed := range edges {
				k := [2]V{min(ed.U, ed.V), max(ed.U, ed.V)}
				if _, ok := live[k]; !ok && ed.U != ed.V {
					live[k] = struct{}{}
					keys = append(keys, k)
				}
			}
			s := NewServer(NewEngine(NewUndirected(n, edges), Options{Threads: 2, RebuildThreshold: -1}), ServerConfig{})
			rng := gen.NewRNG(uint64(trial) + 1)
			// The first delete batch promotes to the forest, an O(|E|) step
			// outside the steady state being measured.
			if _, err := s.ApplyUpdates(churnBatch(rng, live, &keys, n, comps, ops)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				res, err := s.ApplyUpdates(churnBatch(rng, live, &keys, n, comps, ops))
				if err != nil {
					t.Fatal(err)
				}
				if res.NewEdges+res.DeletedEdges != ops || res.Rebuilt {
					t.Fatalf("round %d: %+v, want %d effective ops and no rebuild", r, res, ops)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		return best
	}
	small, large := perPublish(256), perPublish(1024)
	t.Logf("bytes per 100-op dynamic publish: %d at 1x edges, %d at 4x", small, large)
	if large > small+32<<10 {
		t.Fatalf("a dynamic publish allocates %d B at 4x the edges vs %d B: publish is not O(batch)", large, small)
	}
}

// TestForestBuildAllocs pins the presized promotion: building the forest
// from a graph of 10^5 edges makes as many allocations as from one of
// 2*10^5, because every table is sized from |E| before the first Link.
func TestForestBuildAllocs(t *testing.T) {
	const n = 1 << 15
	promote := func(m int) uint64 {
		e := NewEngine(gen.RandomUndirected(n, m, 11), Options{Threads: 1})
		e.mu.Lock()
		defer e.mu.Unlock()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.promoteDynLocked()
		runtime.ReadMemStats(&after)
		if m := e.undirectedEdgesLocked(); e.dyn.NumEdges() != int(m) {
			t.Fatalf("forest holds %d edges, graph %d", e.dyn.NumEdges(), m)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := promote(100_000), promote(200_000)
	t.Logf("allocations per promotion: %d at 1e5 edges, %d at 2e5", small, large)
	if large > small+2 {
		t.Fatalf("promotion makes %d allocations at 2e5 edges vs %d at 1e5: a table grew mid-build", large, small)
	}
}

// oracleUndirected builds the epoch's undirected graph from the oracle.
func oracleUndirected(o *dynEngineOracle) *Undirected {
	live := o.live()
	edges := make([]Edge, 0, len(live))
	for k := range live {
		edges = append(edges, Edge{U: k[0], V: k[1]})
	}
	return NewUndirected(o.n, edges)
}

// oracleDirected builds the epoch's directed graph from a directed oracle.
func oracleDirected(o *dynEngineOracle) *Directed {
	arcs := make([]Edge, 0, len(o.arcs))
	for a := range o.arcs {
		arcs = append(arcs, Edge{U: a[0], V: a[1]})
	}
	return NewDirected(o.n, arcs)
}

// oracleAPsAndBridges returns the serial-DFS AP list and bridge endpoint
// list of g, in the order the engine reports them.
func oracleAPsAndBridges(g *Undirected) ([]V, [][2]V) {
	var aps []V
	for v, ap := range serialdfs.APs(g) {
		if ap {
			aps = append(aps, V(v))
		}
	}
	var brs [][2]V
	eps := g.EdgeEndpoints()
	for id, b := range serialdfs.Bridges(g) {
		if b {
			brs = append(brs, eps[id])
		}
	}
	return aps, brs
}

// seededOracle returns an oracle holding g's edges (arcs when directed).
func seededOracle(n int, directed bool, und *Undirected, dir *Directed) *dynEngineOracle {
	o := newDynEngineOracle(n, directed)
	var ups []Update
	if directed {
		for u := 0; u < n; u++ {
			for _, v := range dir.Out(V(u)) {
				ups = append(ups, Insert(V(u), v))
			}
		}
	} else {
		for _, ep := range und.EdgeEndpoints() {
			ups = append(ups, Insert(ep[0], ep[1]))
		}
	}
	o.apply(ups)
	return o
}

// TestSnapshotPartialAPsAndBridges pins the served §3 partial plans: on
// insert and delete epochs of directed and undirected engines,
// Snapshot.ArticulationPoints and Snapshot.Bridges equal the engine's
// answers and the oracle's, and the complete BiCC and BgCC cells stay empty.
// Under DisablePartial the lists come from those cells.
func TestSnapshotPartialAPsAndBridges(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ directed, complete bool }{
		{directed: false}, {directed: true}, {directed: true, complete: true},
	} {
		t.Run(fmt.Sprintf("directed=%v/complete=%v", c.directed, c.complete), func(t *testing.T) {
			const n = 400
			opt := Options{Threads: 2, DisablePartial: c.complete, RebuildThreshold: -1}
			var e *Engine
			var o *dynEngineOracle
			if c.directed {
				g := gen.Random(n, 700, 21)
				e, o = NewDirectedEngine(g, opt), seededOracle(n, true, nil, g)
			} else {
				g := gen.RandomUndirected(n, 520, 21)
				e, o = NewEngine(g, opt), seededOracle(n, false, g, nil)
			}
			s := NewServer(e, ServerConfig{})
			rng := gen.NewRNG(33)
			for epoch := 1; epoch <= 4; epoch++ {
				var batch []Update
				for len(batch) < 40 {
					u, v := V(rng.Intn(n)), V(rng.Intn(n))
					if epoch > 1 && rng.Intn(2) == 0 {
						batch = append(batch, Delete(u, v))
						// Delete live edges too, not only absent pairs.
						for k := range o.live() {
							batch = append(batch, Delete(k[0], k[1]))
							break
						}
						continue
					}
					batch = append(batch, Insert(u, v))
				}
				if _, err := s.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				o.apply(batch)
				sn := s.Acquire()
				aps, err := sn.ArticulationPoints(ctx)
				if err != nil {
					t.Fatal(err)
				}
				brs, err := sn.Bridges(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantAPs, wantBrs := oracleAPsAndBridges(oracleUndirected(o))
				if !slices.Equal(aps, wantAPs) {
					t.Fatalf("epoch %d: served APs %v, oracle %v", epoch, aps, wantAPs)
				}
				if !slices.Equal(brs, wantBrs) {
					t.Fatalf("epoch %d: served bridges %v, oracle %v", epoch, brs, wantBrs)
				}
				if got := e.ArticulationPoints(); !slices.Equal(got, aps) {
					t.Fatalf("epoch %d: engine APs %v, served %v", epoch, got, aps)
				}
				if got := e.Bridges(); !slices.Equal(got, brs) {
					t.Fatalf("epoch %d: engine bridges %v, served %v", epoch, got, brs)
				}
				// The partial plans leave the complete decompositions'
				// cells empty; under DisablePartial the lists come from them.
				if _, ok := sn.biccRes.Peek(); ok != c.complete {
					t.Fatalf("epoch %d: BiCC cell filled=%v, want the %s plan", epoch, ok, plan(c.complete))
				}
				if _, ok := sn.bgccRes.Peek(); ok != c.complete {
					t.Fatalf("epoch %d: BgCC cell filled=%v, want the %s plan", epoch, ok, plan(c.complete))
				}
			}
		})
	}
}

func plan(complete bool) string {
	if complete {
		return "complete"
	}
	return "partial"
}

// TestSupersededEpochKeepsResultsNotViews pins the view release: once
// epoch k+1 publishes, epoch k caches neither view, keeps its results, and
// answers SCC, BiCC, BgCC and bridges as of its own edge set, building each
// view transiently.
func TestSupersededEpochKeepsResultsNotViews(t *testing.T) {
	ctx := context.Background()
	const n = 500
	g := gen.Random(n, 1500, 41)
	e := NewDirectedEngine(g, Options{Threads: 2, RebuildThreshold: -1})
	o := seededOracle(n, true, nil, g)
	s := NewServer(e, ServerConfig{})
	rng := gen.NewRNG(5)
	step := func() {
		var batch []Update
		for a := range o.arcs {
			batch = append(batch, Delete(a[0], a[1]))
			if len(batch) == 30 {
				break
			}
		}
		for i := 0; i < 30; i++ {
			batch = append(batch, Insert(V(rng.Intn(n)), V(rng.Intn(n))))
		}
		if _, err := s.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
	}
	step()
	sn := s.Acquire()
	noViews := func(when string) {
		t.Helper()
		if _, ok := sn.dirView.Peek(); ok {
			t.Fatalf("%s: superseded epoch holds its directed view", when)
		}
		if _, ok := sn.undView.Peek(); ok {
			t.Fatalf("%s: superseded epoch holds its undirected view", when)
		}
	}
	// On the current epoch a kernel caches the view it walked.
	sccK, err := sn.SCC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sn.dirView.Peek(); !ok {
		t.Fatal("the current epoch did not cache its directed view")
	}
	wantSCC := serialdfs.SCC(oracleDirected(o))
	ug := oracleUndirected(o)
	wantBiCC := serialdfs.BiCC(ug)
	wantBridges := serialdfs.Bridges(ug)
	_, wantBrs := oracleAPsAndBridges(ug)

	step()
	if s.Acquire() == sn {
		t.Fatal("no new epoch published")
	}
	noViews("after publish")
	if err := verify.SamePartition(sccK.Label, wantSCC); err != nil {
		t.Fatalf("cached SCC: %v", err)
	}
	if again, _ := sn.SCC(ctx); again != sccK {
		t.Fatal("the superseded epoch lost its cached SCC result")
	}
	bi, err := sn.BiCC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.SameBoolSet(bi.IsAP, wantBiCC.IsAP, "AP"); err != nil {
		t.Fatal(err)
	}
	if err := verify.SameEdgePartition(bi.BlockOf, wantBiCC.BlockOf); err != nil {
		t.Fatal(err)
	}
	noViews("after BiCC")
	bg, err := sn.BgCC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.BridgeSetEqual(bg.IsBridge, wantBridges); err != nil {
		t.Fatal(err)
	}
	if err := verify.SamePartition(bg.Label, serialdfs.BgCC(ug)); err != nil {
		t.Fatal(err)
	}
	noViews("after BgCC")
	brs, err := sn.Bridges(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(brs, wantBrs) {
		t.Fatalf("bridges on the superseded epoch %v, oracle %v", brs, wantBrs)
	}
	noViews("after Bridges")
}

// TestDeltaFoldsAtBaseSize pins the fixed re-base rule: with rebuilds off,
// the signed delta is merged into the base once it reaches the base's
// size, so it never outgrows the graph, and answers stay exact.
func TestDeltaFoldsAtBaseSize(t *testing.T) {
	const n = 64
	for _, directed := range []bool{false, true} {
		opt := Options{Threads: 1, RebuildThreshold: -1}
		path := make([]Edge, 0, n)
		for v := 1; v < n; v++ {
			path = append(path, Edge{U: V(v - 1), V: V(v)})
		}
		e := NewEngine(NewUndirected(n, path), opt)
		if directed {
			e = NewDirectedEngine(NewDirected(n, path), opt)
		}
		o := seededOracle(n, directed, e.Undirected(), e.Directed())
		rng := gen.NewRNG(13)
		for round := 0; round < 40; round++ {
			batch := make([]Update, 0, 16)
			for i := 0; i < 16; i++ {
				u, v := V(rng.Intn(n)), V(rng.Intn(n))
				if rng.Intn(2) == 0 {
					batch = append(batch, Delete(u, v))
				} else {
					batch = append(batch, Insert(u, v))
				}
			}
			if _, err := e.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			o.apply(batch)
			e.mu.Lock()
			edges, arcs, base := len(e.edgeLog), len(e.arcLog), e.undirectedEdgesLocked()
			baseArcs, wantBase := int64(0), int64(0)
			if directed {
				baseArcs, wantBase = e.dir.NumArcs(), graph.Undirect(e.dir).NumEdges()
			} else {
				wantBase = e.und.NumEdges()
			}
			e.mu.Unlock()
			// The engine carries the base's edge count across re-bases by
			// netting the edge log; it must match the base itself.
			if base != wantBase {
				t.Fatalf("directed=%v round %d: base edge count %d, graph has %d", directed, round, base, wantBase)
			}
			if int64(edges) > base || (directed && int64(arcs) > baseArcs) {
				t.Fatalf("directed=%v round %d: delta of %d edges / %d arcs outgrew a base of %d / %d", directed, round, edges, arcs, base, baseArcs)
			}
			if err := verify.SamePartition(e.CC().Label, o.labels()); err != nil {
				t.Fatalf("directed=%v round %d: %v", directed, round, err)
			}
		}
	}
}

// TestRebuildRebasesBothLogs: on a directed engine a threshold-triggered
// rebuild folds the arc log as well as the edge log and clears the
// membership index, on the insert-only and the dynamic path alike, so
// RebuildThreshold bounds both logs; the re-based graphs match the oracle.
func TestRebuildRebasesBothLogs(t *testing.T) {
	const n = 200
	for _, dynamic := range []bool{false, true} {
		g := gen.Random(n, 400, 17)
		e := NewDirectedEngine(g, Options{Threads: 1, RebuildThreshold: 0.25})
		o := seededOracle(n, true, nil, g)
		rng := gen.NewRNG(9)
		rebuilt := false
		for round := 0; round < 100 && !rebuilt; round++ {
			batch := make([]Update, 0, 8)
			for len(batch) < 8 {
				u, v := V(rng.Intn(n)), V(rng.Intn(n))
				if dynamic && rng.Intn(2) == 0 {
					batch = append(batch, Delete(u, v))
				} else {
					batch = append(batch, Insert(u, v))
				}
			}
			res, err := e.ApplyUpdates(batch)
			if err != nil {
				t.Fatal(err)
			}
			o.apply(batch)
			if res.Dynamic != dynamic {
				t.Fatalf("dynamic=%v: batch ran on the dynamic path=%v", dynamic, res.Dynamic)
			}
			rebuilt = res.Rebuilt
		}
		if !rebuilt {
			t.Fatalf("dynamic=%v: no batch crossed the rebuild threshold", dynamic)
		}
		e.mu.Lock()
		arcs, edges, live := len(e.arcLog), len(e.edgeLog), len(e.live)
		e.mu.Unlock()
		if arcs != 0 || edges != 0 || live != 0 {
			t.Fatalf("dynamic=%v: after a rebuild %d arcs, %d edges and %d index entries remain", dynamic, arcs, edges, live)
		}
		if err := verify.SamePartition(serialdfs.SCC(e.Directed()), serialdfs.SCC(oracleDirected(o))); err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
		if err := verify.SamePartition(serialdfs.CC(e.Undirected()), serialdfs.CC(oracleUndirected(o))); err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
	}
}
