package aquila

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"aquila/internal/cc"
	"aquila/internal/gen"
)

// censusLayout builds the insert-stream shape the census tests share, over n
// vertices in four bands: pairs {2i, 2i+1} at the lowest ids, a connected
// giant over [n/4, 3n/4), and pairs then isolated vertices above it. A merge
// into the giant from above keeps the giant's label; one from below makes
// the small component's smaller id the label of every giant vertex.
func censusLayout(n int) []Edge {
	var edges []Edge
	for v := 0; v+1 < n/8; v += 2 {
		edges = append(edges, Edge{U: V(v), V: V(v + 1)})
	}
	lo, hi := n/4, 3*n/4
	for v := lo; v+1 < hi; v++ {
		edges = append(edges, Edge{U: V(v), V: V(v + 1)})
	}
	for v := hi; v+1 < hi+n/8; v += 2 {
		edges = append(edges, Edge{U: V(v), V: V(v + 1)})
	}
	return edges
}

// sameCensus reports how a materialized census differs from inc.CCResult,
// the flatten it replaces on the publish path: label bytes, component sizes,
// count and largest component must all be identical.
func sameCensus(got, want *cc.Result) string {
	switch {
	case !slices.Equal(got.Label, want.Label):
		return "labels differ"
	case !maps.Equal(got.Sizes, want.Sizes):
		return "sizes differ"
	case got.NumComponents != want.NumComponents:
		return "component counts differ"
	case got.LargestLabel != want.LargestLabel || got.LargestSize != want.LargestSize:
		return "largest components differ"
	}
	return ""
}

func sizeHistogram(res *cc.Result) map[int]int {
	h := make(map[int]int)
	for _, s := range res.Sizes {
		h[s]++
	}
	return h
}

// TestCensusMatchesIncCCResult advances the census through insert-only
// batches and checks, after every batch, that materializing it gives exactly
// inc.CCResult, and that its histogram and largest component agree. The
// batches merge above and below the giant (so a small component with the
// smaller id absorbs it while the overlay holds entries pointing at the
// giant), add edges that merge nothing, and cross the compaction bound
// several times.
func TestCensusMatchesIncCCResult(t *testing.T) {
	const n = 4096 // overlay bound n/overlayDiv = 8
	hi := V(3 * n / 4)
	rng := gen.NewRNG(5)
	random := func(k int) []Edge {
		b := make([]Edge, k)
		for i := range b {
			b[i] = Edge{U: V(rng.Intn(n)), V: V(rng.Intn(n))}
		}
		return b
	}
	batches := [][]Edge{
		// Five pairs above the giant join it; the giant keeps its label.
		{{U: hi, V: 1500}, {U: hi + 2, V: 1600}, {U: hi + 4, V: 1700}, {U: hi + 6, V: 1800}, {U: hi + 8, V: 1900}},
		// Nothing merges: a chord inside the giant, a duplicate, a self-loop.
		{{U: 1100, V: 2900}, {U: 1024, V: 1025}, {U: 7, V: 7}},
		// Two low pairs merge with each other, away from the giant.
		{{U: 2, V: 4}},
		// Pair {0,1} absorbs the giant: every giant vertex and every overlay
		// entry pointing at the giant moves to label 0.
		{{U: 1, V: 2000}},
		// Past the bound: this batch re-bases.
		{{U: hi + 10, V: 2100}, {U: hi + 12, V: 2200}, {U: 8, V: 10}},
		// Isolated vertices above the pairs, then random traffic.
		{{U: hi + V(n/8), V: hi + V(n/8) + 1}, {U: hi + V(n/8) + 2, V: 3000}},
	}
	for i := 0; i < 6; i++ {
		batches = append(batches, random(1+rng.Intn(12)))
	}
	e := NewEngine(NewUndirected(n, censusLayout(n)), Options{Threads: 2, RebuildThreshold: -1})
	bases := map[*censusBase]bool{}
	overlays := 0
	for bi, b := range batches {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		c := e.cen
		want := e.inc.CCResult(2)
		e.mu.Unlock()
		if msg := sameCensus(c.result(2), want); msg != "" {
			t.Fatalf("batch %d: census vs inc.CCResult: %s", bi, msg)
		}
		if got := c.histogram(); !maps.Equal(got, sizeHistogram(want)) {
			t.Fatalf("batch %d: histogram %v, want %v", bi, got, sizeHistogram(want))
		}
		if c.num != e.CountCC() {
			t.Fatalf("batch %d: census count %d, engine %d", bi, c.num, e.CountCC())
		}
		if len(c.redirect) > n/overlayDiv {
			t.Fatalf("batch %d: overlay %d entries past the bound %d", bi, len(c.redirect), n/overlayDiv)
		}
		bases[c.base] = true
		if len(c.redirect) > 0 {
			overlays++
		}
	}
	if len(bases) < 2 || overlays < 3 {
		t.Fatalf("%d bases, %d epochs with an overlay: the batches must cross the bound", len(bases), overlays)
	}
}

// TestCensusLargestTie pins the tie rule: a grown component that ties the
// largest size takes over only with the smaller label, as in cc.Result.
func TestCensusLargestTie(t *testing.T) {
	const n = 1024 // bound 2
	var base []Edge
	for v := V(100); v < 103; v++ { // {100..103}: the largest, size 4
		base = append(base, Edge{U: v, V: v + 1})
	}
	base = append(base, Edge{U: 30, V: 31}, Edge{U: 31, V: 32}, Edge{U: 600, V: 601}, Edge{U: 601, V: 602})
	e := NewEngine(NewUndirected(n, base), Options{Threads: 2, RebuildThreshold: -1})
	for _, tc := range []struct {
		batch []Edge
		label uint32
	}{
		{[]Edge{{U: 600, V: 700}}, 100}, // {600..602,700}: size 4, label 600 > 100
		{[]Edge{{U: 5, V: 30}}, 5},      // {5,30..32}: size 4, label 5 < 100
	} {
		if _, err := e.Apply(tc.batch); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		c, want := e.cen, e.inc.CCResult(2)
		e.mu.Unlock()
		if len(c.redirect) == 0 {
			t.Fatal("batch re-based; the tie must be decided by the overlay")
		}
		if c.largestLabel != tc.label || c.largestSize != 4 || want.LargestLabel != tc.label {
			t.Fatalf("largest = (%d, %d), inc.CCResult (%d, %d), want (%d, 4)",
				c.largestLabel, c.largestSize, want.LargestLabel, want.LargestSize, tc.label)
		}
	}
}

// TestFirstApplyReusesEpochZeroCC pins the cold-solve hand-off: epoch 0's
// first read solves CC on the snapshot, and the first Apply must seed the
// incremental layer from that result instead of solving again.
func TestFirstApplyReusesEpochZeroCC(t *testing.T) {
	const n = 2048
	e := NewEngine(gen.RandomUndirected(n, n/2, 3), Options{Threads: 2})
	s := NewServer(e, ServerConfig{})
	sn0 := s.Acquire()
	if _, err := sn0.Connected(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	c0, ok := sn0.cen.Peek()
	if !ok {
		t.Fatal("epoch 0 has no census after a read")
	}
	if _, err := s.Apply([]Edge{{U: 0, V: 1}, {U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	base := e.cen.base.res.Label
	e.mu.Unlock()
	if &base[0] != &c0.base.res.Label[0] {
		t.Fatal("the first Apply solved CC again instead of reusing epoch 0's labels")
	}
}

// manyComponents returns an undirected graph over n vertices with exactly
// comps components: vertex v belongs to component v mod comps, a path.
func manyComponents(n, comps int) *Undirected {
	edges := make([]Edge, 0, n)
	for v := comps; v < n; v++ {
		edges = append(edges, Edge{U: V(v - comps), V: V(v)})
	}
	return NewUndirected(n, edges)
}

// mergingBatch returns the r-th batch of 64 new edges on a manyComponents
// graph: merges edges each join two components no earlier batch touched, and
// the rest are chords inside distinct components of the upper half.
func mergingBatch(comps, r, merges int) []Edge {
	b := make([]Edge, 0, 64)
	for i := 0; i < merges; i++ {
		a := V(2 * (r*merges + i))
		b = append(b, Edge{U: a, V: a + 1})
	}
	for i := len(b); i < 64; i++ {
		u := V(comps/2 + (r*64+i)%(comps/2))
		b = append(b, Edge{U: u, V: u + 2*V(comps)})
	}
	return b
}

// TestPublishAllocIndependentOfV pins the O(batch) publish: a merging
// 64-edge Server.Apply allocates the same bytes on 2^14 and 2^20 vertices
// with the same component count. Flattening the union-find per publish, as
// inc.CCResult does, allocates 8 bytes per vertex.
func TestPublishAllocIndependentOfV(t *testing.T) {
	const comps, merges, rounds, trials = 1024, 4, 4, 3
	// perApply returns the bytes one merging Apply allocates, averaged over
	// rounds and minimized over trials so that a stray goroutine's
	// allocations cannot inflate it.
	perApply := func(n int) uint64 {
		g := manyComponents(n, comps)
		best := ^uint64(0)
		for trial := 0; trial < trials; trial++ {
			s := NewServer(NewEngine(g, Options{Threads: 2}), ServerConfig{})
			// The first Apply seeds the incremental layer, an O(|V|) step
			// outside the steady state being measured.
			if _, err := s.Apply(mergingBatch(comps, 0, merges)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 1; r <= rounds; r++ {
				res, err := s.Apply(mergingBatch(comps, r, merges))
				if err != nil {
					t.Fatal(err)
				}
				if res.Merged != merges || res.NewEdges != 64 || res.Rebuilt {
					t.Fatalf("n=%d round %d: %+v, want %d merges of 64 new edges", n, r, res, merges)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		return best
	}
	small, large := perApply(1<<14), perApply(1<<20)
	t.Logf("bytes per merging Apply: %d at 2^14 vertices, %d at 2^20", small, large)
	if large > small+16<<10 {
		t.Fatalf("a merging Apply allocates %d B at 2^20 vertices vs %d B at 2^14: publish is not O(batch)", large, small)
	}
}

// TestSnapshotConnectedZeroAlloc pins the read path: on an insert-only
// epoch whose census has a non-empty overlay, and on dynamic epochs of
// undirected and directed engines, Connected is a census lookup per
// endpoint. It allocates nothing, and it answers while another
// goroutine holds the engine lock: the census is published at capture.
func TestSnapshotConnectedZeroAlloc(t *testing.T) {
	const n = 4096
	ctx := context.Background()
	for _, c := range []struct {
		name     string
		directed bool
	}{
		{"undirected", false},
		{"directed", true},
	} {
		opt := Options{Threads: 2}
		e := NewEngine(NewUndirected(n, censusLayout(n)), opt)
		if c.directed {
			e = NewDirectedEngine(NewDirected(n, censusLayout(n)), opt)
		}
		s := NewServer(e, ServerConfig{})
		if _, err := s.Apply([]Edge{{U: 1, V: 2000}, {U: 3000, V: 3500}}); err != nil {
			t.Fatal(err)
		}
		check := func(epoch string, want bool) {
			t.Helper()
			sn := s.Acquire()
			var ok bool
			allocs := testing.AllocsPerRun(200, func() {
				ok, _ = sn.Connected(ctx, 0, 2500)
			})
			if ok != want {
				t.Fatalf("%s %s epoch: Connected(0, 2500) = %v, want %v", c.name, epoch, ok, want)
			}
			if allocs != 0 {
				t.Fatalf("%s %s epoch: Snapshot.Connected allocates %.1f times per call, want 0", c.name, epoch, allocs)
			}
			e.mu.Lock()
			done := make(chan struct{})
			go func() {
				sn.Connected(ctx, 0, 2500)
				sn.CountCC(ctx)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s %s epoch: Connected blocked on the engine lock", c.name, epoch)
			}
			e.mu.Unlock()
		}
		if cn, ok := s.Acquire().cen.Peek(); !ok || len(cn.redirect) == 0 {
			t.Fatalf("%s: epoch 1 has no census overlay", c.name)
		}
		check("insert-only", true)
		// Deleting the merging edge promotes the engine and splits 0 from
		// 2500 again; the dynamic epoch publishes the forest's census.
		if _, err := s.ApplyUpdates([]Update{Delete(1, 2000)}); err != nil {
			t.Fatal(err)
		}
		check("dynamic", false)
		if _, err := s.ApplyUpdates([]Update{Insert(0, 2500), Delete(3000, 3500)}); err != nil {
			t.Fatal(err)
		}
		check("dynamic", true)
	}
}
