package graph

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBuildDirectedBasics(t *testing.T) {
	g := BuildDirected(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 1}, {3, 3}})
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumArcs(); got != 3 {
		t.Fatalf("NumArcs = %d, want 3 (dup and self-loop dropped)", got)
	}
	if got := g.Out(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Out(0) = %v, want [1]", got)
	}
	if got := g.In(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("In(0) = %v, want [2]", got)
	}
	if got := g.OutDegree(3); got != 0 {
		t.Errorf("OutDegree(3) = %d, want 0", got)
	}
	if got := g.InDegree(1); got != 1 {
		t.Errorf("InDegree(1) = %d, want 1", got)
	}
}

func TestBuildDirectedSortedAdjacency(t *testing.T) {
	g := BuildDirected(5, []Edge{{0, 4}, {0, 2}, {0, 3}, {0, 1}})
	out := g.Out(0)
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Errorf("Out(0) = %v not sorted", out)
	}
}

func TestBuildUndirectedSymmetry(t *testing.T) {
	g := BuildUndirected(4, []Edge{{0, 1}, {1, 0}, {2, 1}, {3, 3}})
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Neighbors(V(u)) {
			if !g.HasEdge(v, V(u)) {
				t.Errorf("edge %d-%d present but reverse missing", u, v)
			}
		}
	}
}

func TestMateAndEdgeID(t *testing.T) {
	g := BuildUndirected(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	mate, eid := mateSlots(g.off, g.adj), g.EdgeIDs()
	seen := make(map[int64]int)
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.SlotRange(V(u))
		for s := lo; s < hi; s++ {
			m := mate[s]
			if mate[m] != s {
				t.Fatalf("mate not involutive at slot %d", s)
			}
			if g.SlotTarget(m) != V(u) {
				t.Fatalf("mate of slot %d does not point back to %d", s, u)
			}
			if eid[s] != eid[m] {
				t.Fatalf("edge id differs across mates at slot %d", s)
			}
			seen[eid[s]]++
		}
	}
	if int64(len(seen)) != g.NumEdges() {
		t.Fatalf("got %d distinct edge ids, want %d", len(seen), g.NumEdges())
	}
	for id, count := range seen {
		if count != 2 {
			t.Errorf("edge id %d appears in %d slots, want 2", id, count)
		}
	}
}

// TestEdgeIDsConcurrent races the first EdgeIDs calls on a fresh graph: every
// goroutine must get the one shared index, equal to the seed finish.
func TestEdgeIDsConcurrent(t *testing.T) {
	g := BuildUndirected(1<<10, testEdges(1<<10, 1<<13, 9))
	if g.EdgeIDsBuilt() {
		t.Fatal("fresh graph already has an edge-id index")
	}
	_, want := seedEdgeIndex(g.n, g.off, g.adj)
	got := make([][]int64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.EdgeIDs()
		}()
	}
	wg.Wait()
	for i, ids := range got {
		if unsafe.SliceData(ids) != unsafe.SliceData(got[0]) {
			t.Fatalf("goroutine %d got its own index", i)
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("goroutine %d: edge ids differ from the seed finish", i)
		}
	}
}

func TestEdgeIDOf(t *testing.T) {
	g := BuildUndirected(4, []Edge{{0, 1}, {1, 2}})
	if g.EdgeIDOf(0, 1) < 0 || g.EdgeIDOf(1, 0) < 0 {
		t.Errorf("existing edge not found")
	}
	if g.EdgeIDOf(0, 1) != g.EdgeIDOf(1, 0) {
		t.Errorf("edge id not symmetric")
	}
	if g.EdgeIDOf(0, 2) != -1 {
		t.Errorf("missing edge reported present")
	}
	if g.EdgeIDOf(0, 3) != -1 {
		t.Errorf("missing edge to isolated vertex reported present")
	}
}

func TestUndirect(t *testing.T) {
	d := BuildDirected(4, []Edge{{0, 1}, {1, 0}, {1, 2}})
	u := Undirect(d)
	if got := u.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := u.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 (mutual pair collapses)", got)
	}
	if !u.HasEdge(2, 1) {
		t.Errorf("reverse of single directed edge missing")
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := BuildUndirected(4, []Edge{{0, 1}, {2, 1}, {3, 2}})
	eps := g.EdgeEndpoints()
	if int64(len(eps)) != g.NumEdges() {
		t.Fatalf("len = %d, want %d", len(eps), g.NumEdges())
	}
	for id, e := range eps {
		if e[0] >= e[1] {
			t.Errorf("endpoints %v not ordered", e)
		}
		if g.EdgeIDOf(e[0], e[1]) != int64(id) {
			t.Errorf("endpoints %v do not round-trip to id %d", e, id)
		}
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := BuildUndirected(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if got := g.MaxDegreeVertex(); got != 0 {
		t.Errorf("MaxDegreeVertex = %d, want 0", got)
	}
	d := BuildDirected(3, []Edge{{0, 1}, {2, 1}})
	if got := d.MaxOutDegreeVertex(); got != 1 {
		t.Errorf("MaxOutDegreeVertex = %d, want 1 (in+out degree 2)", got)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := "# comment\n% another\n0 1\n2 3 extra-ignored\n\n1 2\n"
	edges, n, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("n = %d, want 4", n)
	}
	if len(edges) != 3 {
		t.Errorf("len(edges) = %d, want 3", len(edges))
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: want error, got nil", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := BuildDirected(5, []Edge{{0, 1}, {1, 2}, {4, 0}, {2, 4}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	edges, n, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2 := BuildDirected(n, edges)
	if g2.NumArcs() != g.NumArcs() {
		t.Errorf("arcs = %d, want %d", g2.NumArcs(), g.NumArcs())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := BuildDirected(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {5, 0}, {3, 5}, {4, 4}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumArcs(), g.NumVertices(), g.NumArcs())
	}
	for u := 0; u < g.NumVertices(); u++ {
		a, b := g.Out(V(u)), g2.Out(V(u))
		if len(a) != len(b) {
			t.Fatalf("Out(%d) length mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Out(%d)[%d] mismatch", u, i)
			}
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all........."))); err == nil {
		t.Errorf("want error for garbage input")
	}
}

// Property: for any random edge set, the undirected builder produces a
// symmetric, sorted, deduplicated CSR whose derived mate index is involutive.
func TestUndirectedBuilderProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{V(raw[i] % n), V(raw[i+1] % n)})
		}
		g := BuildUndirected(n, edges)
		mate := mateSlots(g.off, g.adj)
		for u := 0; u < n; u++ {
			ns := g.Neighbors(V(u))
			for i, v := range ns {
				if v == V(u) {
					return false // self loop survived
				}
				if i > 0 && ns[i-1] >= v {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(v, V(u)) {
					return false // asymmetric
				}
			}
			lo, hi := g.SlotRange(V(u))
			for s := lo; s < hi; s++ {
				if mate[mate[s]] != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReorderDirectedLeavesInCSRUnbuilt checks that ranking and laying out
// a directed graph builds no in-CSR into it, and that the permutations equal
// those computed from a prebuilt in-CSR.
func TestReorderDirectedLeavesInCSRUnbuilt(t *testing.T) {
	edges := testEdges(5000, 40000, 11)
	for name, order := range map[string]func(*Directed, int) *Permutation{
		"degree": DegreeOrderDirected, "bfs": BFSOrderDirected,
	} {
		t.Run(name, func(t *testing.T) {
			g := BuildDirected(5000, edges)
			got := order(g, 2)
			if g.InBuilt() {
				t.Fatal("ordering built the graph's in-CSR")
			}
			prebuilt := BuildDirected(5000, edges)
			prebuilt.InCSR()
			want := order(prebuilt, 2)
			if !slices.Equal(got.Perm, want.Perm) || !slices.Equal(got.Inv, want.Inv) {
				t.Fatal("permutation differs from the one computed with the in-CSR built")
			}
		})
	}
}
