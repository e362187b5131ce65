package graph

import (
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

// TestUnionRowHelpers checks UnionSize, UnionNth and AppendUnion against
// Undirect's rows, which are the sorted unions of Out and In.
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
			if got := UnionSize(out, in); got != int64(len(row)) {
				t.Fatalf("n=%d v=%d: UnionSize = %d, want %d", n, v, got, len(row))
			}
			if buf = AppendUnion(buf[:0], out, in); !slices.Equal(buf, row) {
				t.Fatalf("n=%d v=%d: AppendUnion = %v, want %v", n, v, buf, row)
			}
			for i := 0; i <= len(row); i++ {
				got, ok := UnionNth(out, in, i)
				if ok != (i < len(row)) || (ok && got != row[i]) {
					t.Fatalf("n=%d v=%d: UnionNth(%d) = %d,%v, want row %v", n, v, i, got, ok, row)
				}
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
	if cold.UndirectedBuilt() {
		t.Fatal("an unbuilt view was built by the re-base")
	}
	want := Undirect(cold)
	d.Undirected(2)
	for _, p := range []int{1, 4} {
		warm := d.PatchWithView(arcs, edges, p)
		if !warm.UndirectedBuilt() {
			t.Fatalf("p=%d: the built view was not carried forward", p)
		}
		sameUndirected(t, want, warm.Undirected(p))
	}
	if d.PatchWithView(nil, nil, 2) != d {
		t.Fatal("an empty log made a new graph")
	}
}
