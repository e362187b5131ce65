package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// patchSchedule drives a random effective change log against the arc (or,
// with sym, normalized edge) set of base: inserts of absent keys and
// deletes of present ones, some keys toggled several times. It returns the
// log and the final key set.
func patchSchedule(rnd *rand.Rand, n int, base []Edge, sym bool, steps int) ([]Change, []Edge) {
	norm := func(u, v V) [2]V {
		if sym && u > v {
			u, v = v, u
		}
		return [2]V{u, v}
	}
	live := make(map[[2]V]bool)
	for _, e := range base {
		if e.U != e.V {
			live[norm(e.U, e.V)] = true
		}
	}
	var log []Change
	var touched [][2]V
	for i := 0; i < steps; i++ {
		var k [2]V
		if len(touched) > 0 && rnd.Intn(3) == 0 {
			k = touched[rnd.Intn(len(touched))]
		} else {
			k = norm(V(rnd.Intn(n)), V(rnd.Intn(n)))
			if k[0] == k[1] {
				continue
			}
			touched = append(touched, k)
		}
		present := live[k]
		live[k] = !present
		c := Change{U: k[0], V: k[1], Del: present}
		if sym && rnd.Intn(2) == 0 {
			c.U, c.V = c.V, c.U // either order names the edge
		}
		log = append(log, c)
	}
	var out []Edge
	for k, ok := range live {
		if ok {
			out = append(out, Edge{U: k[0], V: k[1]})
		}
	}
	return log, out
}

// TestPatchMatchesRebuild: merging a change log into a CSR gives exactly the
// graph built from scratch from the final edge set, for directed and
// undirected graphs, at the serial and the parallel worker counts, and
// leaves the input untouched.
func TestPatchMatchesRebuild(t *testing.T) {
	for _, tc := range []struct{ n, m, steps int }{{40, 60, 80}, {3000, 40000, 3000}} {
		for _, threads := range []int{1, 4} {
			rnd := rand.New(rand.NewSource(int64(tc.n + threads)))
			var edges []Edge
			for i := 0; i < tc.m; i++ {
				edges = append(edges, Edge{U: V(rnd.Intn(tc.n)), V: V(rnd.Intn(tc.n))})
			}

			// An unbuilt in-CSR stays unbuilt and a built one is patched;
			// either way it ends as the transpose the serial builder makes.
			log, final := patchSchedule(rnd, tc.n, edges, false, tc.steps)
			want := BuildDirectedSerial(tc.n, final)
			for _, inBuilt := range []bool{false, true} {
				d := BuildDirected(tc.n, edges)
				if inBuilt {
					d.InCSR()
				}
				before := slices.Clone(d.outAdj)
				got := d.Patch(log, threads)
				if got.InBuilt() != inBuilt {
					t.Fatalf("in-CSR built %v before Patch, %v after", inBuilt, got.InBuilt())
				}
				sameDirected(t, want, got)
				if !slices.Equal(d.outAdj, before) {
					t.Fatal("Directed.Patch modified its receiver")
				}
			}

			u := BuildUndirected(tc.n, edges)
			log, final = patchSchedule(rnd, tc.n, edges, true, tc.steps)
			gotU, wantU := u.Patch(log, threads), BuildUndirected(tc.n, final)
			if !slices.Equal(gotU.off, wantU.off) || !slices.Equal(gotU.adj, wantU.adj) {
				t.Fatalf("n=%d threads=%d: patched undirected CSR differs from the rebuild", tc.n, threads)
			}
			if !slices.Equal(gotU.EdgeEndpoints(), wantU.EdgeEndpoints()) {
				t.Fatal("patched edge ids differ from the rebuild")
			}
		}
	}
}

// TestPatchEmptyAndNetZero: a log that nets to nothing returns the receiver
// itself; a self-loop entry is ignored.
func TestPatchEmptyAndNetZero(t *testing.T) {
	d := BuildDirected(4, []Edge{{0, 1}, {1, 2}})
	log := []Change{{U: 2, V: 3}, {U: 2, V: 3, Del: true}, {U: 3, V: 3}}
	if d.Patch(log, 1) != d || d.Patch(nil, 1) != d {
		t.Fatal("a net-zero log built a new directed graph")
	}
	u := BuildUndirected(4, []Edge{{0, 1}})
	if u.Patch([]Change{{U: 0, V: 1, Del: true}, {U: 1, V: 0}}, 1) != u {
		t.Fatal("a net-zero log built a new undirected graph")
	}
}
