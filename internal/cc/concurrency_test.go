package cc

// Concurrency tests for the union-find matrix cells. These run in the plain
// tier for interleaving coverage and — via the CI race row for this package —
// under the race detector, where the lock-free Unite/UniteRem protocols and
// the chunk-parallel sampling/finish loops get their real audit.

import (
	"sync"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// TestUFCellsConcurrentHammer repeatedly solves a hub-skewed graph with 8
// workers through every union-find cell: maximal contention on the giant
// component's root, exact min-id agreement with the oracle every time.
func TestUFCellsConcurrentHammer(t *testing.T) {
	g := graph.Undirect(gen.Social(gen.SocialConfig{
		GiantVertices: 4000, GiantAvgDeg: 8, SmallComps: 60,
		SmallMaxSize: 8, Isolated: 40, MutualFrac: 0.3, Seed: 41,
	}))
	want := serialdfs.CC(g)
	for iter := 0; iter < 5; iter++ {
		for _, pol := range unionFindCells() {
			res := Solve(g, pol, Options{Threads: 8})
			for v := range want {
				if res.Label[v] != want[v] {
					t.Fatalf("iter %d, %v: Label[%d] = %d, want %d", iter, pol, v, res.Label[v], want[v])
				}
			}
		}
	}
}

// TestSolveConcurrentCallers runs independent Solves of different cells over
// the same shared (read-only) graph from concurrent goroutines — the serving
// layer's actual usage shape once policies vary per snapshot.
func TestSolveConcurrentCallers(t *testing.T) {
	g := gen.RandomUndirected(3000, 9000, 43)
	want := serialdfs.CC(g)
	var wg sync.WaitGroup
	errs := make(chan string, len(Policies()))
	for _, pol := range Policies() {
		pol := pol
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Solve(g, pol, Options{Threads: 2})
			for v := range want {
				if res.Label[v] != want[v] {
					errs <- pol.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for pol := range errs {
		t.Errorf("cell %s diverged from oracle under concurrent callers", pol)
	}
}

// TestSummarizeTinyGraphAllocs is the regression test for the census fix:
// below summarizeSerialMax the census must run serially into the map — no
// n-sized counts array, no fork/join — so its allocation count is a small
// constant independent of the vertex count.
func TestSummarizeTinyGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = summarizeSerialMax
	label := make([]uint32, n)
	for i := range label {
		label[i] = uint32(i % 7) // 7 components, sizes n/7±1
	}
	r := &Result{Label: label}
	allocs := testing.AllocsPerRun(50, func() {
		r.NumComponents, r.LargestSize, r.LargestLabel = 0, 0, 0
		r.summarize(n, 4)
	})
	// One map header plus its (bounded, component-count-sized) buckets.
	if allocs > 4 {
		t.Errorf("summarize allocated %.0f times on a tiny graph, want ≤ 4", allocs)
	}
	if r.NumComponents != 7 || r.LargestLabel != 0 {
		t.Fatalf("census wrong: %d components, largest %d", r.NumComponents, r.LargestLabel)
	}
}

// TestSummarizeSerialMatchesParallel pins the two census paths to each other
// just above the crossover, where both are reachable.
func TestSummarizeSerialMatchesParallel(t *testing.T) {
	n := summarizeSerialMax + 512
	label := make([]uint32, n)
	for i := range label {
		label[i] = uint32(i % 13)
	}
	serial := &Result{Label: label}
	serial.summarize(n, 1) // p=1 forces the serial path at any size
	par := &Result{Label: label}
	par.summarize(n, 4)
	if serial.NumComponents != par.NumComponents ||
		serial.LargestLabel != par.LargestLabel ||
		serial.LargestSize != par.LargestSize {
		t.Fatalf("census paths disagree: serial (%d,%d,%d) vs parallel (%d,%d,%d)",
			serial.NumComponents, serial.LargestLabel, serial.LargestSize,
			par.NumComponents, par.LargestLabel, par.LargestSize)
	}
	for l, c := range serial.Sizes {
		if par.Sizes[l] != c {
			t.Fatalf("Sizes[%d]: serial %d, parallel %d", l, c, par.Sizes[l])
		}
	}
}
