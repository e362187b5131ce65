package aquila

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/bfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/serve"
	"aquila/internal/verify"
)

// epochCells reports which results ep holds (set) and their identities (id),
// under the keys of cacheKeys.
func epochCells(ep *epoch) (set map[string]bool, id map[string]string) {
	set, id = map[string]bool{}, map[string]string{}
	for k, peek := range map[string]func() (any, bool){
		"cc":      peekCell(&ep.ccRes),
		"largest": peekCell(&ep.largest),
		"scc":     peekCell(&ep.sccRes),
		"cond":    peekCell(&ep.cond),
		"bicc":    peekCell(&ep.biccRes),
		"bgcc":    peekCell(&ep.bgccRes),
		"apOnly":  peekCell(&ep.aps),
		"brOnly":  peekCell(&ep.bridges),
		"btw":     peekCell(&ep.btw),
		"core":    peekCell(&ep.core),
	} {
		v, ok := peek()
		set[k], id[k] = ok, fmt.Sprintf("%p", v)
	}
	return set, id
}

// peekCell returns a peek at c's value that forgets its type.
func peekCell[T any](c *serve.Cell[T]) func() (any, bool) {
	return func() (any, bool) {
		v, ok := c.Peek()
		return v, ok
	}
}

// TestIsConnectedPlanTable pins the §3 plan IsConnected takes on the engine
// and through a Server, with partial computation on and off. On a graph the
// trim check decides (a path plus an isolated vertex) no traversal scratch is
// taken; on one it cannot (two disjoint cycles) one traversal runs. Neither
// solves the census, which under DisablePartial answers both without a
// traversal.
func TestIsConnectedPlanTable(t *testing.T) {
	const n = 3001
	var path, cycles []Edge
	for v := V(0); v+2 < n; v++ { // 0..n-2 in a path, n-1 isolated
		path = append(path, Edge{U: v, V: v + 1})
	}
	for v := V(0); v < n; v++ { // cycles over 0..1499 and 1500..n-1
		lo, hi := V(0), V(1500)
		if v >= 1500 {
			lo, hi = 1500, n
		}
		cycles = append(cycles, Edge{U: v, V: lo + (v-lo+1)%(hi-lo)})
	}
	graphs := []struct {
		name      string
		g         *Undirected
		trimmable bool
	}{
		{"path+isolated", NewUndirected(n, path), true},
		{"two-cycles", NewUndirected(n, cycles), false},
	}
	for _, gc := range graphs {
		for _, viaServer := range []bool{false, true} {
			for _, disablePartial := range []bool{false, true} {
				name := fmt.Sprintf("%s/server=%v/partial=%v", gc.name, viaServer, !disablePartial)
				e := NewEngine(gc.g, Options{Threads: 2, DisablePartial: disablePartial})
				// A traversal takes this scratch from the pool and leaves its
				// visited set in the bitmap when it puts it back.
				sentinel := bfs.NewReachScratch(n, 2)
				e.reach.Put(sentinel)
				var got bool
				var ep *epoch
				if viaServer {
					s := NewServer(e, ServerConfig{})
					var err error
					if got, err = s.IsConnected(context.Background()); err != nil {
						t.Fatal(err)
					}
					ep = s.Acquire().epoch
				} else {
					got = e.IsConnected()
					e.mu.Lock()
					ep = e.snap.epoch
					e.mu.Unlock()
				}
				if got {
					t.Fatalf("%s: a disconnected graph answered connected", name)
				}
				_, censused := ep.cen.Peek()
				rs := e.reach.Get(n, 2)
				traversed := rs != sentinel || rs.DetachVisited().Count() > 0
				if censused != disablePartial {
					t.Errorf("%s: census solved = %v, want %v", name, censused, disablePartial)
				}
				if want := !disablePartial && !gc.trimmable; traversed != want {
					t.Errorf("%s: traversal ran = %v, want %v", name, traversed, want)
				}
			}
		}
	}
}

// TestApplyDuringColdBiCC: on a bare Engine a cold BiCC runs on its epoch
// outside the engine lock, so an Apply issued meanwhile returns before it
// does, and the BiCC answers the graph as of its call, not the one Apply
// made. The batch bridges a leaf u to another component, which makes u an
// articulation point only afterwards. A host that finishes BiCC before
// Apply starts, or while Apply runs, makes the check vacuous.
func TestApplyDuringColdBiCC(t *testing.T) {
	const n = 200000
	g := gen.RandomUndirected(n, 3*n/2, 3)
	e := NewEngine(g, Options{Threads: 2, RebuildThreshold: -1})
	lab := serialdfs.CC(g)
	var u, v V = NoVertex, NoVertex
	for w := 0; w < n && v == NoVertex; w++ {
		switch {
		case u == NoVertex && g.Degree(V(w)) == 1 && g.Degree(g.Neighbors(V(w))[0]) > 1:
			u = V(w)
		case u != NoVertex && g.Degree(V(w)) > 0 && lab[w] != lab[u]:
			v = V(w)
		}
	}
	if v == NoVertex {
		t.Fatal("no leaf and second component found")
	}
	// Seed the incremental layer first, so that the Apply under test is
	// O(batch).
	if _, err := e.Apply([]Edge{{U: u, V: g.Neighbors(u)[0]}}); err != nil {
		t.Fatal(err)
	}
	wantAPs := serialdfs.APs(g)

	done := make(chan *BiCCResult, 1)
	go func() {
		res, _ := e.BiCCContext(context.Background())
		done <- res
	}()
	// BiCC has fixed its graph once it has captured its epoch.
	for captured := false; !captured; time.Sleep(100 * time.Microsecond) {
		e.mu.Lock()
		captured = !e.stale
		e.mu.Unlock()
	}
	var res *BiCCResult
	select {
	case res = <-done:
		t.Log("vacuous: BiCC finished before Apply started")
	default:
		start := time.Now()
		if _, err := e.Apply([]Edge{{U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		select {
		case res = <-done:
			if took > 50*time.Millisecond {
				t.Fatalf("Apply took %v and returned after the cold BiCC finished: it waited for it", took)
			}
			t.Log("vacuous: BiCC finished while Apply ran")
		default:
			res = <-done
		}
	}
	if err := verify.SameBoolSet(res.IsAP, wantAPs, "AP"); err != nil {
		t.Fatalf("BiCC during Apply: %v", err)
	}
	if res.IsAP[u] || !e.BiCC().IsAP[u] {
		t.Fatalf("vertex %d: AP before the batch %v, after %v; want false, true", u, res.IsAP[u], e.BiCC().IsAP[u])
	}
}

// invalidationProbes finds, in the paper example, a duplicate arc, an arc
// whose reverse is absent, and non-edges inside one component and across
// two: the four batches of TestEngineCacheInvalidationOnApply.
func invalidationProbes(t *testing.T) (dup, rev, intra, merge Edge) {
	g := gen.PaperExample()
	for v := 0; v < g.NumVertices() && rev == (Edge{}); v++ {
		for _, w := range g.Out(V(v)) {
			dup = Edge{U: V(v), V: w}
			if !g.HasArc(w, V(v)) {
				rev = Edge{U: w, V: V(v)}
				break
			}
		}
	}
	u := graph.Undirect(g)
	lab := serialdfs.CC(u)
	var foundIntra, foundMerge bool
	for a := 0; a < u.NumVertices(); a++ {
		for b := a + 1; b < u.NumVertices(); b++ {
			switch {
			case u.HasEdge(V(a), V(b)):
			case lab[a] == lab[b] && !foundIntra:
				intra, foundIntra = Edge{U: V(a), V: V(b)}, true
			case lab[a] != lab[b] && !foundMerge:
				merge, foundMerge = Edge{U: V(a), V: V(b)}, true
			}
		}
	}
	if rev == (Edge{}) || !foundIntra || !foundMerge {
		t.Fatal("no probe edges found")
	}
	return dup, rev, intra, merge
}

// TestServedEpochInheritance runs TestEngineCacheInvalidationOnApply's four
// batches through a Server: the epoch Server.Apply publishes keeps by
// pointer every result of the previous epoch the batch cannot affect — a
// reverse arc keeps BiCC, BgCC, the APs and the bridges — and starts
// without the rest, which recompute to the truth.
func TestServedEpochInheritance(t *testing.T) {
	ctx := context.Background()
	dup, rev, intra, merge := invalidationProbes(t)
	twoConn := []string{"bicc", "bgcc", "apOnly", "brOnly", "btw", "core"}
	cases := []struct {
		name    string
		batch   []Edge
		dropped []string
	}{
		{"duplicateArc", []Edge{dup}, nil},
		{"reverseArcOnly", []Edge{rev}, []string{"scc", "cond"}},
		{"intraComponentEdge", []Edge{intra}, append([]string{"scc", "cond"}, twoConn...)},
		{"mergingEdge", []Edge{merge}, cacheKeys},
	}
	for _, disablePartial := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("partial=%v/%s", !disablePartial, tc.name), func(t *testing.T) {
				e := NewDirectedEngine(gen.PaperExample(),
					Options{Threads: 2, DisablePartial: disablePartial, RebuildThreshold: -1})
				s := NewServer(e, ServerConfig{})
				for _, q := range []func() error{
					func() error { _, err := s.CC(ctx); return err },
					func() error { _, err := s.SCC(ctx); return err },
					func() error { _, err := s.BiCC(ctx); return err },
					func() error { _, err := s.BgCC(ctx); return err },
					func() error { _, err := s.ArticulationPoints(ctx); return err },
					func() error { _, err := s.Bridges(ctx); return err },
					func() error { _, err := s.LargestCC(ctx); return err },
				} {
					if err := q(); err != nil {
						t.Fatal(err)
					}
				}
				// The engine-only results live on the same epoch.
				e.Condensation()
				e.BetweennessCentrality()
				e.Coreness()

				before, beforeID := epochCells(s.Acquire().epoch)
				if _, err := s.Apply(tc.batch); err != nil {
					t.Fatal(err)
				}
				after, afterID := epochCells(s.Acquire().epoch)
				for _, k := range cacheKeys {
					if !before[k] {
						t.Fatalf("result %q was not warm before the batch", k)
					}
					if slices.Contains(tc.dropped, k) {
						if after[k] {
							t.Errorf("result %q should have been dropped", k)
						}
					} else if !after[k] || afterID[k] != beforeID[k] {
						t.Errorf("result %q should have been kept", k)
					}
				}

				cc, err := s.CC(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.SamePartition(cc.Label, serialdfs.CC(e.Undirected())); err != nil {
					t.Errorf("CC after Apply: %v", err)
				}
				sccRes, err := s.SCC(ctx)
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

// TestIsArticulationPointWarmZeroAlloc: IsArticulationPoint agrees with the
// AP list and, on a warm epoch, is a binary search that allocates nothing.
func TestIsArticulationPointWarmZeroAlloc(t *testing.T) {
	for _, disablePartial := range []bool{false, true} {
		e := NewDirectedEngine(gen.PaperExample(), Options{Threads: 2, DisablePartial: disablePartial})
		aps := e.ArticulationPoints()
		if len(aps) == 0 {
			t.Fatal("the paper example has articulation points")
		}
		for v := 0; v < e.NumVertices(); v++ {
			if got := e.IsArticulationPoint(V(v)); got != slices.Contains(aps, V(v)) {
				t.Fatalf("partial=%v: IsArticulationPoint(%d) = %v, list %v", !disablePartial, v, got, aps)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { e.IsArticulationPoint(aps[0]) }); allocs != 0 {
			t.Fatalf("partial=%v: IsArticulationPoint allocates %.1f times per warm call", !disablePartial, allocs)
		}
	}
}

// TestDirectedRebuildBudgetFromBound: a directed engine decides the rebuild
// threshold and the fold rule from |A|/2 ≤ |E| ≤ |A|, so a small first
// Apply leaves the undirected edge count untaken; where the bound cannot
// decide it counts, and it rebuilds at the same batches as an undirected
// engine over the same graph, whose count is exact.
func TestDirectedRebuildBudgetFromBound(t *testing.T) {
	d := gen.Random(2000, 8000, 7)
	de := NewDirectedEngine(d, Options{Threads: 2})
	ue := NewEngine(graph.Undirect(d), Options{Threads: 2})
	counted := func() bool {
		de.mu.Lock()
		defer de.mu.Unlock()
		return de.undEdges >= 0
	}
	rng := gen.NewRNG(11)
	rebuilt := false
	for b := 0; b < 12; b++ {
		batch := make([]Edge, 300)
		for i := range batch {
			batch[i] = Edge{U: V(rng.Intn(2000)), V: V(rng.Intn(2000))}
		}
		dr, err := de.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		ur, err := ue.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if dr.NewEdges != ur.NewEdges || dr.Rebuilt != ur.Rebuilt || dr.Components != ur.Components {
			t.Fatalf("batch %d: directed %+v, undirected %+v", b, dr, ur)
		}
		if b == 0 && counted() {
			t.Fatal("a small first Apply counted the mutual arcs")
		}
		rebuilt = rebuilt || dr.Rebuilt
	}
	if !counted() || !rebuilt {
		t.Fatalf("counted %v, rebuilt %v: the batches must reach the threshold and the undecided band", counted(), rebuilt)
	}
}

// TestPartialLargestStaysWithItsEpoch: a largest component found by the §3
// traversal is not inherited across a write that keeps the census: from the
// first update on, the census answers LargestCC.
func TestPartialLargestStaysWithItsEpoch(t *testing.T) {
	g := gen.PaperExampleUndirected()
	e := NewEngine(g, Options{Threads: 2, RebuildThreshold: -1})
	if !e.LargestCC().Partial {
		t.Fatal("the paper example's majority component should be found partially")
	}
	e.CC()
	lab := serialdfs.CC(g)
	var intra Edge
	for a := 0; a < g.NumVertices() && intra == (Edge{}); a++ {
		for b := a + 1; b < g.NumVertices(); b++ {
			if lab[a] == lab[b] && !g.HasEdge(V(a), V(b)) {
				intra = Edge{U: V(a), V: V(b)}
				break
			}
		}
	}
	if res, err := e.Apply([]Edge{intra}); err != nil || res.Merged != 0 {
		t.Fatalf("Apply(%v) = %+v, %v; want a non-merging edge", intra, res, err)
	}
	if l := e.LargestCC(); l.Partial || l.Size != 8 {
		t.Fatalf("after a non-merging Apply: LargestCC size %d partial %v, want 8 from the census", l.Size, l.Partial)
	}
}

// TestEngineCallsNeverShed: engine calls take no admission slot, even on an
// engine whose Server has its one slot busy and no queue, and an engine call
// that joined a served compute the gate then shed runs its own compute
// instead of returning ErrOverloaded — also the first Server.Apply, which
// seeds the incremental layer from the epoch's census.
func TestEngineCallsNeverShed(t *testing.T) {
	ctx := context.Background()
	g := gen.RandomUndirected(2000, 1500, 5)
	want := serialdfs.CC(g)
	for _, first := range []string{"CC", "Apply"} {
		e := NewEngine(g, Options{Threads: 2, RebuildThreshold: -1})
		s := NewServer(e, ServerConfig{MaxInFlight: 1, MaxQueue: -1})
		if err := s.gate.Acquire(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CC(ctx); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%s: served CC with the slot busy returned %v, want ErrOverloaded", first, err)
		}
		// A served census compute is in flight when the engine call joins
		// it, and the gate sheds it afterwards.
		started, release := make(chan struct{}), make(chan struct{})
		go s.Acquire().cen.Get(ctx, func(context.Context) (*census, error) {
			close(started)
			<-release
			return nil, ErrOverloaded
		})
		<-started
		hits, _ := s.SingleflightStats()
		done := make(chan error, 1)
		go func() {
			if first == "CC" {
				if c := e.CC(); c == nil {
					done <- errors.New("no result")
				} else {
					done <- verify.SamePartition(c.Label, want)
				}
				return
			}
			res, err := s.Apply([]Edge{{U: 0, V: 1}})
			if err == nil && res.Components != e.CountCC() {
				err = fmt.Errorf("components %d, counter %d", res.Components, e.CountCC())
			}
			done <- err
		}()
		for h := hits; h == hits; h, _ = s.SingleflightStats() {
			time.Sleep(100 * time.Microsecond) // until the engine call joins
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("%s after a shed served compute: %v", first, err)
		}
		// Every other engine query answers with the slot still busy.
		if e.IsConnected() {
			t.Errorf("%s: IsConnected on a disconnected graph", first)
		}
		u := e.Undirected()
		isAP := make([]bool, u.NumVertices())
		for _, v := range e.ArticulationPoints() {
			isAP[v] = true
		}
		if err := verify.SameBoolSet(isAP, serialdfs.APs(u), "AP"); err != nil {
			t.Errorf("%s: %v", first, err)
		}
		if got, want := len(e.Bridges()), len(slices.DeleteFunc(serialdfs.Bridges(u), func(b bool) bool { return !b })); got != want {
			t.Errorf("%s: %d bridges, want %d", first, got, want)
		}
		if l := e.LargestCC(); l == nil || !e.InLargestCC(l.Pivot) {
			t.Errorf("%s: LargestCC %+v", first, l)
		}
		s.gate.Release()
	}
}

// TestLargestCCFromLaterCensus: once a census exists the engine answers
// LargestCC from it, even after its epoch's traversal answered, while a
// served snapshot keeps its first answer for the epoch.
func TestLargestCCFromLaterCensus(t *testing.T) {
	ctx := context.Background()
	g := gen.PaperExampleUndirected()
	e := NewEngine(g, Options{Threads: 2})
	if !e.LargestCC().Partial {
		t.Fatal("the paper example's majority component should be found partially")
	}
	s := NewServer(e, ServerConfig{})
	e.CC()
	l, c := e.LargestCC(), e.CC()
	if l.Partial || l.Size != c.LargestSize || l.Pivot != V(c.LargestLabel) {
		t.Fatalf("LargestCC after CC: %+v, want the census answer", l)
	}
	sl, err := s.LargestCC(ctx)
	if err != nil || !sl.Partial {
		t.Fatalf("served LargestCC after CC: %+v, %v; want the epoch's traversal answer", sl, err)
	}
}

// TestRebaseDropsSupersededBase: an engine that only applies batches keeps
// its superseded epoch's results for inheritance but not its base graph, so
// it never holds two bases at once; results the writes could not change are
// still inherited across the re-base.
func TestRebaseDropsSupersededBase(t *testing.T) {
	g := gen.RandomUndirected(2000, 3000, 9)
	e := NewEngine(g, Options{Threads: 2, RebuildThreshold: -1})
	ccRes := e.CC()
	e.BiCC()
	rng := gen.NewRNG(4)
	lab := serialdfs.CC(g)
	for b := 0; e.und == g; b++ {
		if b == 100 {
			t.Fatal("no re-base after 100 batches")
		}
		batch := make([]Edge, 0, 100)
		for len(batch) < cap(batch) {
			u, v := V(rng.Intn(2000)), V(rng.Intn(2000))
			if lab[u] == lab[v] { // no merge: the census stays the same
				batch = append(batch, Edge{U: u, V: v})
			}
		}
		if _, err := e.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	held := e.snap.st.base.und
	e.mu.Unlock()
	if held != nil && held != e.und {
		t.Fatal("the engine's superseded epoch still holds the old base")
	}
	if e.CC() != ccRes {
		t.Error("CC was not inherited across the re-base")
	}
	if err := verify.SameBoolSet(e.BiCC().IsAP, serialdfs.APs(e.Undirected()), "AP"); err != nil {
		t.Errorf("BiCC after the re-base: %v", err)
	}
}

// TestStrongQueriesStayWithTheirEpoch pins where LargestSCC and
// IsStronglyConnected answer from: a decomposition the epoch holds answers
// both with O(1) allocations, a partial answer is computed once per epoch
// and inherited while no arc changes, and an arc added by Apply recomputes.
func TestStrongQueriesStayWithTheirEpoch(t *testing.T) {
	const n = 3000
	// A directed path with random forward chords: every SCC is a singleton,
	// vertex 0 has no in-arc, and the arc n-1 → 0 makes it one SCC.
	rng := rand.New(rand.NewSource(5))
	var arcs []Edge
	for v := 0; v+1 < n; v++ {
		arcs = append(arcs, Edge{U: V(v), V: V(v + 1)})
		if u := rng.Intn(n); u > v {
			arcs = append(arcs, Edge{U: V(v), V: V(u)})
		}
	}
	e := NewDirectedEngine(graph.BuildDirected(n, arcs), Options{Threads: 2, RebuildThreshold: -1})

	l1, err := e.LargestSCC()
	if err != nil {
		t.Fatal(err)
	}
	// The sweep finds a singleton, so the answer comes from the complete
	// decomposition, which the epoch then holds.
	if l1.Partial || l1.Size != 1 {
		t.Fatalf("a path's LargestSCC: size %d, partial %v", l1.Size, l1.Partial)
	}
	e.mu.Lock()
	_, solved := e.snap.sccRes.Peek()
	e.mu.Unlock()
	if !solved {
		t.Fatal("an inconclusive sweep left no SCC decomposition in the epoch")
	}
	if ok, _ := e.IsStronglyConnected(); ok {
		t.Fatal("a path is not strongly connected")
	}

	if _, err := e.Apply([]Edge{{U: n - 1, V: 0}}); err != nil {
		t.Fatal(err)
	}
	// Every vertex now has in- and out-arcs, so the answer needs the sweeps;
	// each takes this scratch from the pool and leaves its visited set in it.
	sentinel := bfs.NewReachScratch(n, 2)
	e.reach.Put(sentinel)
	if ok, _ := e.IsStronglyConnected(); !ok {
		t.Fatal("a path closed into a cycle is strongly connected")
	}
	if rs := e.reach.Get(n, 2); rs != sentinel || rs.DetachVisited().Count() != n {
		t.Fatal("IsStronglyConnected did not sweep after the new arc")
	}
	idle := bfs.NewReachScratch(n, 2)
	e.reach.Put(idle)
	if ok, _ := e.IsStronglyConnected(); !ok {
		t.Fatal("repeated IsStronglyConnected changed its answer")
	}
	if rs := e.reach.Get(n, 2); rs != idle || rs.DetachVisited().Count() != 0 {
		t.Fatal("a repeated IsStronglyConnected swept again")
	}
	l3, _ := e.LargestSCC()
	if l3 == l1 || !l3.Partial || l3.Size != n {
		t.Fatalf("after the new arc: size %d, partial %v, recomputed %v", l3.Size, l3.Partial, l3 != l1)
	}
	if l4, _ := e.LargestSCC(); l4 != l3 {
		t.Fatal("a repeated LargestSCC swept again")
	}
	// A batch that adds no arc still starts a new epoch, which inherits
	// both answers.
	e.mu.Lock()
	before := e.snap
	e.mu.Unlock()
	if _, err := e.Apply([]Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if l5, _ := e.LargestSCC(); l5 != l3 {
		t.Fatal("an epoch with the same arcs did not inherit the partial LargestSCC")
	}
	e.mu.Lock()
	after := e.snap
	e.mu.Unlock()
	if after == before {
		t.Fatal("the batch started no new epoch")
	}
	if _, ok := after.strong.Peek(); !ok {
		t.Fatal("an epoch with the same arcs did not inherit IsStronglyConnected")
	}

	res, err := e.SCC()
	if err != nil {
		t.Fatal(err)
	}
	var l *LargestResult
	var strong bool
	if a := testing.AllocsPerRun(20, func() {
		l, _ = e.LargestSCC()
		strong, _ = e.IsStronglyConnected()
	}); a > 4 {
		t.Fatalf("LargestSCC and IsStronglyConnected after SCC() allocate %.0f times per call pair", a)
	}
	if l.Partial || l.Size != res.LargestSize || strong != (res.NumComponents == 1) {
		t.Fatalf("after SCC(): size %d (want %d), partial %v, strong %v", l.Size, res.LargestSize, l.Partial, strong)
	}
	for v := 0; v < n; v++ {
		if l.Contains(V(v)) != (res.Label[v] == res.LargestLabel) {
			t.Fatalf("Contains(%d) disagrees with the decomposition", v)
		}
	}

	// On a fresh engine whose epoch holds the decomposition first, neither
	// query sweeps.
	f := NewDirectedEngine(graph.BuildDirected(n, append(arcs, Edge{U: n - 1, V: 0})), Options{Threads: 2})
	if _, err := f.SCC(); err != nil {
		t.Fatal(err)
	}
	idle = bfs.NewReachScratch(n, 2)
	f.reach.Put(idle)
	if ok, _ := f.IsStronglyConnected(); !ok {
		t.Fatal("a cycle is strongly connected")
	}
	if l, _ := f.LargestSCC(); l.Partial || l.Size != n {
		t.Fatalf("LargestSCC after SCC(): size %d, partial %v", l.Size, l.Partial)
	}
	if rs := f.reach.Get(n, 2); rs != idle || rs.DetachVisited().Count() != 0 {
		t.Fatal("a query swept although the epoch held the decomposition")
	}
}
