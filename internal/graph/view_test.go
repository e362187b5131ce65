package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestDirectedUndirectedMemo races the first Undirected calls on a fresh
// graph: every goroutine gets the one shared view, equal to Undirect, and
// UndirectedBuilt turns true only with it.
func TestDirectedUndirectedMemo(t *testing.T) {
	d := BuildDirected(1<<10, testEdges(1<<10, 1<<13, 5))
	if d.UndirectedBuilt() {
		t.Fatal("fresh graph already has an undirected view")
	}
	want := Undirect(d)
	if d.UndirectedBuilt() {
		t.Fatal("Undirect memoized its result on the input")
	}
	got := make([]*Undirected, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = d.Undirected(1 + i%3)
		}()
	}
	wg.Wait()
	if !d.UndirectedBuilt() {
		t.Fatal("UndirectedBuilt false after Undirected")
	}
	for i, u := range got {
		if u != got[0] {
			t.Fatalf("goroutine %d got its own view", i)
		}
	}
	sameUndirected(t, want, got[0])
}

// TestDirectedInMemo: a built graph holds its out-CSR alone; the first
// In, InDegree or InCSR — racing from several goroutines — builds one shared
// in-CSR, equal to the serial builder's, which later calls return.
func TestDirectedInMemo(t *testing.T) {
	edges := testEdges(1<<10, 1<<13, 7)
	want := BuildDirectedSerial(1<<10, edges)
	for _, first := range []string{"In", "InDegree", "InCSR"} {
		d := BuildDirected(1<<10, edges)
		if d.InBuilt() {
			t.Fatal("BuildDirected built the in-CSR")
		}
		got := make([][]V, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch first {
				case "In":
					d.In(V(i))
				case "InDegree":
					d.InDegree(V(i))
				}
				_, got[i] = d.InCSR()
			}()
		}
		wg.Wait()
		if !d.InBuilt() {
			t.Fatalf("%s: InBuilt false after the first use", first)
		}
		for i, adj := range got {
			if &adj[0] != &got[0][0] {
				t.Fatalf("%s: goroutine %d got its own in-CSR", first, i)
			}
		}
		sameDirected(t, want, d)
		if d.UndirectedBuilt() {
			t.Fatalf("%s: building the in-CSR built the undirected view", first)
		}
	}
	// Undirect builds the in-CSR first and leaves it on the graph.
	d := BuildDirected(1<<10, edges)
	d.Undirected(2)
	if !d.InBuilt() {
		t.Fatal("Undirected left the in-CSR unbuilt")
	}
}

// TestInCSRBuiltOnLoad: the .aqg container loaders read the in-CSR anyway
// (and check it is the transpose), so they hand it over built, equal to the
// serial builder's.
func TestInCSRBuiltOnLoad(t *testing.T) {
	edges := testEdges(500, 3000, 9)
	want := BuildDirectedSerial(500, edges)
	var aqg bytes.Buffer
	if err := WriteContainer(&aqg, BuildDirected(500, edges)); err != nil {
		t.Fatal(err)
	}
	c, err := LoadContainer(writeTempContainer(t, aqg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	streamed, err := ReadContainer(bytes.NewReader(aqg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Directed{"mapped": c.Directed, "streamed": streamed.Directed} {
		if !g.InBuilt() {
			t.Fatalf("%s: the load left the in-CSR unbuilt", name)
		}
		sameDirected(t, want, g)
	}
}

// TestUnionRowHelpers checks unionSize and AppendUnion against Undirect's
// rows, which are the sorted unions of Out and In.
func TestUnionRowHelpers(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 200} {
		var edges []Edge
		for i := 0; i < 4*n; i++ {
			edges = append(edges, Edge{U: V(rnd.Intn(n)), V: V(rnd.Intn(n))})
			if rnd.Intn(3) == 0 {
				edges = append(edges, Edge{U: edges[len(edges)-1].V, V: edges[len(edges)-1].U})
			}
		}
		d := BuildDirected(n, edges)
		u := Undirect(d)
		var buf []V
		for v := 0; v < n; v++ {
			row := u.Neighbors(V(v))
			out, in := d.Out(V(v)), d.In(V(v))
			if got := unionSize(out, in); got != int64(len(row)) {
				t.Fatalf("n=%d v=%d: unionSize = %d, want %d", n, v, got, len(row))
			}
			if buf = AppendUnion(buf[:0], out, in); !slices.Equal(buf, row) {
				t.Fatalf("n=%d v=%d: AppendUnion = %v, want %v", n, v, buf, row)
			}
		}
	}
}

// TestPatchWithView: a re-base carries a built undirected view forward
// patched with the edge log, equal to a fresh Undirect of the patched graph,
// and leaves an unbuilt one unbuilt.
func TestPatchWithView(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	const n = 300
	base := testEdges(n, 900, 13)
	d := BuildDirected(n, base)
	arcs, _ := patchSchedule(rnd, n, base, false, 400)

	// The undirected changes the arc log makes, as an engine logs them: an
	// edge appears when its first arc does and goes with its last.
	live := make(map[[2]V]bool)
	for u := 0; u < n; u++ {
		for _, v := range d.Out(V(u)) {
			live[[2]V{V(u), v}] = true
		}
	}
	var edges []Change
	for _, c := range arcs {
		rev := live[[2]V{c.V, c.U}]
		live[[2]V{c.U, c.V}] = !c.Del
		if !rev {
			edges = append(edges, Change{U: min(c.U, c.V), V: max(c.U, c.V), Del: c.Del})
		}
	}

	cold := d.PatchWithView(arcs, edges, 2)
	if cold.UndirectedBuilt() || cold.InBuilt() {
		t.Fatal("an unbuilt view or in-CSR was built by the re-base")
	}
	want := Undirect(cold)
	d.Undirected(2)
	for _, p := range []int{1, 4} {
		warm := d.PatchWithView(arcs, edges, p)
		if !warm.UndirectedBuilt() || !warm.InBuilt() {
			t.Fatalf("p=%d: the built view or in-CSR was not carried forward", p)
		}
		sameUndirected(t, want, warm.Undirected(p))
		sameDirected(t, cold, warm)
	}
	if d.PatchWithView(nil, nil, 2) != d {
		t.Fatal("an empty log made a new graph")
	}
}
