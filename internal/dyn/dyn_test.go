package dyn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aquila/internal/graph"
)

// naive is a brute-force dynamic-connectivity mirror: an edge set plus BFS.
type naive struct {
	n     int
	edges map[[2]graph.V]struct{}
}

func newNaive(n int) *naive {
	return &naive{n: n, edges: make(map[[2]graph.V]struct{})}
}

func nkey(u, v graph.V) [2]graph.V {
	if u > v {
		u, v = v, u
	}
	return [2]graph.V{u, v}
}

func (o *naive) link(u, v graph.V) bool {
	if u == v {
		return false
	}
	pre := o.connected(u, v)
	o.edges[nkey(u, v)] = struct{}{}
	return !pre
}

func (o *naive) cut(u, v graph.V) (split, existed bool) {
	k := nkey(u, v)
	if _, ok := o.edges[k]; !ok {
		return false, false
	}
	delete(o.edges, k)
	return !o.connected(u, v), true
}

func (o *naive) adj() [][]graph.V {
	a := make([][]graph.V, o.n)
	for k := range o.edges {
		a[k[0]] = append(a[k[0]], k[1])
		a[k[1]] = append(a[k[1]], k[0])
	}
	return a
}

func (o *naive) connected(u, v graph.V) bool {
	if u == v {
		return true
	}
	a := o.adj()
	seen := make([]bool, o.n)
	seen[u] = true
	q := []graph.V{u}
	for len(q) > 0 {
		x := q[0]
		q = q[1:]
		for _, y := range a[x] {
			if y == v {
				return true
			}
			if !seen[y] {
				seen[y] = true
				q = append(q, y)
			}
		}
	}
	return false
}

func (o *naive) labels() ([]uint32, int) {
	a := o.adj()
	label := make([]uint32, o.n)
	for i := range label {
		label[i] = ^uint32(0)
	}
	comps := 0
	for s := 0; s < o.n; s++ {
		if label[s] != ^uint32(0) {
			continue
		}
		comps++
		label[s] = uint32(s)
		q := []graph.V{graph.V(s)}
		for len(q) > 0 {
			x := q[0]
			q = q[1:]
			for _, y := range a[x] {
				if label[y] == ^uint32(0) {
					label[y] = uint32(s)
					q = append(q, y)
				}
			}
		}
	}
	return label, comps
}

func checkAgainstNaive(t *testing.T, f *Forest, o *naive, rnd *rand.Rand) {
	t.Helper()
	if f.NumEdges() != len(o.edges) {
		t.Fatalf("edge count: forest %d, naive %d", f.NumEdges(), len(o.edges))
	}
	wantL, wantC := o.labels()
	gotL, gotC := f.Labels()
	if gotC != wantC {
		t.Fatalf("component count: forest %d, naive %d", gotC, wantC)
	}
	if f.ComponentCount() != wantC {
		t.Fatalf("ComponentCount: forest %d, naive %d", f.ComponentCount(), wantC)
	}
	for v := range wantL {
		if gotL[v] != wantL[v] {
			t.Fatalf("label[%d]: forest %d, naive %d", v, gotL[v], wantL[v])
		}
	}
	// Spot-check Connected on random pairs (labels already imply it, but this
	// exercises the query path directly).
	for i := 0; i < 16; i++ {
		u := graph.V(rnd.Intn(f.NumVertices()))
		v := graph.V(rnd.Intn(f.NumVertices()))
		if got, want := f.Connected(u, v), wantL[u] == wantL[v]; got != want {
			t.Fatalf("Connected(%d,%d) = %v, naive %v", u, v, got, want)
		}
	}
}

func TestForestBasic(t *testing.T) {
	f := NewForest(5)
	if f.ComponentCount() != 5 {
		t.Fatalf("empty forest components = %d, want 5", f.ComponentCount())
	}
	if !f.Link(0, 1) {
		t.Fatal("Link(0,1) on empty forest should merge")
	}
	if f.Link(0, 1) {
		t.Fatal("duplicate Link should be a no-op")
	}
	if f.Link(1, 1) {
		t.Fatal("self-loop Link should be a no-op")
	}
	if !f.Link(1, 2) || f.Link(0, 2) {
		t.Fatal("triangle closure should not merge")
	}
	if f.ComponentCount() != 3 {
		t.Fatalf("components = %d, want 3", f.ComponentCount())
	}
	// Cutting one triangle edge keeps the component intact (replacement).
	if split, existed := f.Cut(0, 1); split || !existed {
		t.Fatalf("Cut(0,1) = (%v,%v), want (false,true)", split, existed)
	}
	if !f.Connected(0, 1) {
		t.Fatal("0-1 still connected via 2 after cutting the tree edge")
	}
	// Only {1,2} and {0,2} remain: cutting {1,2} isolates vertex 1.
	if split, _ := f.Cut(1, 2); !split {
		t.Fatal("Cut(1,2) should isolate vertex 1")
	}
	if f.Connected(1, 2) || !f.Connected(0, 2) {
		t.Fatal("after Cut(1,2): 1 isolated, 0-2 still joined")
	}
}

func TestForestBridgeChain(t *testing.T) {
	// A path 0-1-2-...-k: every edge is a bridge; cutting any splits.
	const k = 64
	f := NewForest(k + 1)
	for i := 0; i < k; i++ {
		if !f.Link(graph.V(i), graph.V(i+1)) {
			t.Fatalf("path Link(%d,%d) should merge", i, i+1)
		}
	}
	if split, existed := f.Cut(31, 32); !split || !existed {
		t.Fatalf("cutting a bridge: (split,existed)=(%v,%v), want (true,true)", split, existed)
	}
	if f.Connected(0, k) {
		t.Fatal("halves should be disconnected")
	}
	if f.ComponentCount() != 2 {
		t.Fatalf("components = %d, want 2", f.ComponentCount())
	}
	// Relink and verify it heals.
	if !f.Link(31, 32) {
		t.Fatal("relinking the bridge should merge")
	}
	if !f.Connected(0, k) {
		t.Fatal("relink should reconnect the chain")
	}
}

func TestForestRandomizedVsNaive(t *testing.T) {
	classes := []struct {
		name  string
		n     int
		steps int
		pDel  float64
	}{
		{"sparse", 48, 400, 0.35},
		{"dense", 16, 500, 0.45},
		{"churn", 32, 600, 0.5},
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seeds := 12
			if testing.Short() {
				seeds = 4
			}
			for seed := 0; seed < seeds; seed++ {
				rnd := rand.New(rand.NewSource(int64(seed)*7919 + int64(c.n)))
				f := NewForest(c.n)
				o := newNaive(c.n)
				for s := 0; s < c.steps; s++ {
					u := graph.V(rnd.Intn(c.n))
					v := graph.V(rnd.Intn(c.n))
					if rnd.Float64() < c.pDel && len(o.edges) > 0 {
						// Bias deletes toward live edges half the time so
						// tree-edge cuts actually happen.
						if rnd.Intn(2) == 0 {
							for k := range o.edges {
								u, v = k[0], k[1]
								break
							}
						}
						wantSplit, wantExist := o.cut(u, v)
						gotSplit, gotExist := f.Cut(u, v)
						if gotSplit != wantSplit || gotExist != wantExist {
							t.Fatalf("seed %d step %d Cut(%d,%d) = (%v,%v), naive (%v,%v)",
								seed, s, u, v, gotSplit, gotExist, wantSplit, wantExist)
						}
					} else {
						want := o.link(u, v)
						got := f.Link(u, v)
						if got != want {
							t.Fatalf("seed %d step %d Link(%d,%d) = %v, naive %v",
								seed, s, u, v, got, want)
						}
					}
					if s%25 == 0 {
						checkAgainstNaive(t, f, o, rnd)
					}
				}
				checkAgainstNaive(t, f, o, rnd)
			}
		})
	}
}

func TestForestDeleteTheBridgeAdversarial(t *testing.T) {
	// Two cliques joined by a single bridge; repeatedly cut the bridge,
	// verify the split, relink, and also churn clique-internal edges so the
	// replacement search has non-tree edges to consider at several levels.
	const half = 12
	n := 2 * half
	f := NewForest(n)
	o := newNaive(n)
	link := func(u, v graph.V) {
		if got, want := f.Link(u, v), o.link(u, v); got != want {
			t.Fatalf("Link(%d,%d) merged=%v, naive %v", u, v, got, want)
		}
	}
	cut := func(u, v graph.V) {
		gs, ge := f.Cut(u, v)
		ws, we := o.cut(u, v)
		if gs != ws || ge != we {
			t.Fatalf("Cut(%d,%d) = (%v,%v), naive (%v,%v)", u, v, gs, ge, ws, we)
		}
	}
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			link(graph.V(i), graph.V(j))
			link(graph.V(half+i), graph.V(half+j))
		}
	}
	rnd := rand.New(rand.NewSource(42))
	for round := 0; round < 30; round++ {
		bu := graph.V(rnd.Intn(half))
		bv := graph.V(half + rnd.Intn(half))
		link(bu, bv) // the bridge
		if !f.Connected(0, graph.V(half)) {
			t.Fatal("bridge should connect the cliques")
		}
		// Churn some intra-clique edges while the bridge is up.
		for i := 0; i < 6; i++ {
			a := graph.V(rnd.Intn(half))
			b := graph.V(rnd.Intn(half))
			if rnd.Intn(2) == 0 {
				cut(a, b)
			} else {
				link(a, b)
			}
		}
		cut(bu, bv) // delete the bridge: must split, never find a replacement
		if f.Connected(0, graph.V(half)) {
			t.Fatal("cutting the only bridge must split the components")
		}
		checkAgainstNaive(t, f, o, rnd)
	}
}

func TestForestVertexRangePanics(t *testing.T) {
	f := NewForest(4)
	for _, fn := range []func(){
		func() { f.Link(0, 4) },
		func() { f.Cut(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range vertex should panic")
				}
			}()
			fn()
		}()
	}
}

func TestForestLabelsCanonical(t *testing.T) {
	f := NewForest(10)
	f.Link(5, 9)
	f.Link(9, 2)
	f.Link(7, 8)
	label, comps := f.Labels()
	if comps != 7 {
		t.Fatalf("components = %d, want 7", comps)
	}
	for v, l := range label {
		if int(l) > v {
			t.Fatalf("label[%d] = %d not min-id canonical", v, l)
		}
		if label[l] != l {
			t.Fatalf("label[%d] = %d but label[%d] = %d (rep not self-labeled)", v, l, l, label[l])
		}
	}
	if label[2] != 2 || label[5] != 2 || label[9] != 2 {
		t.Fatalf("component {2,5,9} labels = %d,%d,%d, want all 2", label[2], label[5], label[9])
	}
}

// edgeStates returns the level and tree flag of every live edge of f,
// keyed by normalized endpoints.
func edgeStates(f *Forest) map[[2]graph.V][2]int {
	out := make(map[[2]graph.V][2]int, f.NumEdges())
	for e, ed := range f.edges {
		if got, ok := f.index.get(key64(ed.u, ed.v)); !ok || got != int32(e) {
			continue // a freed record
		}
		tree := 0
		if ed.tree {
			tree = 1
		}
		out[[2]graph.V{ed.u, ed.v}] = [2]int{int(ed.level), tree}
	}
	return out
}

// TestForestDeterministic pins reproducibility: two forests fed one
// Link/Cut schedule end with the same level and tree flag on every live
// edge. Replacement search and promotion walk tours and lists in a fixed
// order, so nothing may depend on map iteration.
func TestForestDeterministic(t *testing.T) {
	const n, ops = 300, 20000
	run := func() map[[2]graph.V][2]int {
		f := NewForest(n)
		rnd := rand.New(rand.NewSource(7))
		var live [][2]graph.V
		for i := 0; i < ops; i++ {
			if len(live) > 0 && rnd.Intn(5) < 2 {
				j := rnd.Intn(len(live))
				f.Cut(live[j][0], live[j][1])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
			if u != v && !f.HasEdge(u, v) {
				f.Link(u, v)
				live = append(live, [2]graph.V{u, v})
			}
		}
		if f.NumEdges() != len(live) {
			t.Fatalf("forest holds %d edges, schedule left %d", f.NumEdges(), len(live))
		}
		return edgeStates(f)
	}
	a, b := run(), run()
	promoted := 0
	for k, sa := range a {
		if sb := b[k]; sa != sb {
			t.Fatalf("edge %v: (level, tree) = %v in one run, %v in the other", k, sa, sb)
		}
		if sa[0] > 0 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no edge left level 0: the schedule does not exercise promotion")
	}
	t.Logf("%d live edges, %d above level 0, identical in both runs", len(a), promoted)
}

// TestForestRejectsOversize: sizes past the int32 links' limits are
// refused with a panic before anything is allocated.
func TestForestRejectsOversize(t *testing.T) {
	for _, c := range []struct{ n, m int }{
		{10, MaxEdges + 1}, {MaxVertices + 1, 0}, {-1, 0}, {10, -1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewForestSized(%d, %d) did not panic", c.n, c.m)
				}
			}()
			NewForestSized(c.n, c.m)
		}()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
			t.Errorf("NewForestSized(%d, %d) allocated %d bytes before refusing", c.n, c.m, d)
		}
	}
	// The largest sizes the limits admit still fit the int32 links.
	if 3*MaxVertices-1 > math.MaxInt32 || 2*MaxEdges > math.MaxInt32 || (MaxEdges-1)<<1 >= arcFlag {
		t.Fatal("MaxVertices or MaxEdges admits a size whose slab index or edge handle overflows int32")
	}
}
