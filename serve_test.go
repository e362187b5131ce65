package aquila

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/verify"
)

func TestServerSnapshotIsolation(t *testing.T) {
	// Two components {0,1,2} and {3,4}; the update bridges them.
	e := NewEngine(NewUndirected(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}), Options{Threads: 2})
	s := NewServer(e, ServerConfig{})
	ctx := context.Background()

	old := s.Acquire()
	if old.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", old.Epoch())
	}
	if ok, err := old.Connected(ctx, 0, 3); err != nil || ok {
		t.Fatalf("epoch 0 Connected(0,3) = (%v, %v), want (false, nil)", ok, err)
	}

	res, err := s.Apply([]Edge{{U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("Merged = %d, want 1", res.Merged)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch after Apply = %d, want 1", s.Epoch())
	}

	// The pinned old snapshot still answers as of epoch 0...
	if ok, _ := old.Connected(ctx, 0, 3); ok {
		t.Fatal("old snapshot observed a later epoch's edge")
	}
	if cnt, _ := old.CountCC(ctx); cnt != 2 {
		t.Fatalf("old CountCC = %d, want 2", cnt)
	}
	// ...while the new epoch sees the merge.
	if ok, _ := s.Connected(ctx, 0, 3); !ok {
		t.Fatal("new epoch missing the applied edge")
	}
	if cnt, _ := s.CountCC(ctx); cnt != 1 {
		cnt2, _ := s.CountCC(ctx)
		t.Fatalf("new CountCC = %d (retry %d), want 1", cnt, cnt2)
	}
	if ok, _ := s.IsConnected(ctx); !ok {
		t.Fatal("new epoch should be connected")
	}
}

func TestServerMatchesOracleAcrossEpochs(t *testing.T) {
	const n = 200
	full := gen.RandomUndirected(n, 600, 11)
	eps := full.EdgeEndpoints()
	edges := make([]Edge, len(eps))
	for i, ep := range eps {
		edges[i] = Edge{U: ep[0], V: ep[1]}
	}
	half := len(edges) / 2
	e := NewEngine(NewUndirected(n, edges[:half]), Options{Threads: 2})
	s := NewServer(e, ServerConfig{})
	ctx := context.Background()

	// Reconstruct each epoch's graph independently and compare decompositions.
	applied := half
	for epoch := 0; ; epoch++ {
		g := NewUndirected(n, edges[:applied])
		truth := serialdfs.CC(g)
		res, err := s.CC(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.SamePartition(res.Label, truth); err != nil {
			t.Fatalf("epoch %d: CC diverged: %v", epoch, err)
		}
		aps, err := s.ArticulationPoints(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantAPs := serialdfs.APs(g)
		gotAPs := make([]bool, n)
		for _, v := range aps {
			gotAPs[v] = true
		}
		if err := verify.SameBoolSet(gotAPs, wantAPs, "AP"); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if applied >= len(edges) {
			break
		}
		next := applied + 150
		if next > len(edges) {
			next = len(edges)
		}
		if _, err := s.Apply(edges[applied:next]); err != nil {
			t.Fatal(err)
		}
		applied = next
	}
}

func TestServerDirectedSCC(t *testing.T) {
	e := NewDirectedEngine(NewDirected(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}), Options{Threads: 2})
	s := NewServer(e, ServerConfig{})
	ctx := context.Background()
	if res, err := s.SCC(ctx); err != nil || res.NumComponents != 3 {
		t.Fatalf("path SCC = (%+v, %v), want 3 components", res, err)
	}
	if _, err := s.Apply([]Edge{{U: 2, V: 0}}); err != nil {
		t.Fatal(err)
	}
	if res, err := s.SCC(ctx); err != nil || res.NumComponents != 1 {
		t.Fatalf("cycle SCC = (%+v, %v), want 1 component", res, err)
	}

	und := NewServer(NewEngine(NewUndirected(2, nil), Options{}), ServerConfig{})
	if _, err := und.SCC(ctx); !errors.Is(err, ErrNotDirected) {
		t.Fatalf("undirected SCC err = %v, want ErrNotDirected", err)
	}
}

func TestServerCancelledQuery(t *testing.T) {
	g := gen.RandomUndirected(500, 1500, 3)
	s := NewServer(NewEngine(g, Options{Threads: 2}), ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CC(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CC err = %v, want Canceled", err)
	}
	// The cancelled attempt must not have poisoned the snapshot: a live
	// context gets the real answer.
	res, err := s.CC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.SamePartition(res.Label, serialdfs.CC(g)); err != nil {
		t.Fatal(err)
	}
}

func TestServerDefaultTimeout(t *testing.T) {
	g := gen.RandomUndirected(100, 300, 5)
	s := NewServer(NewEngine(g, Options{Threads: 2}), ServerConfig{DefaultTimeout: time.Second})
	if ok, err := s.IsConnected(nil); err != nil {
		t.Fatalf("IsConnected under default timeout: %v", err)
	} else {
		want := serialdfs.CC(g)
		allSame := true
		for _, l := range want {
			if l != want[0] {
				allSame = false
			}
		}
		if ok != allSame {
			t.Fatalf("IsConnected = %v, oracle = %v", ok, allSame)
		}
	}
}

func TestServerConcurrentReadersAndWriter(t *testing.T) {
	const n = 300
	full := gen.RandomUndirected(n, 900, 21)
	eps := full.EdgeEndpoints()
	edges := make([]Edge, len(eps))
	for i, ep := range eps {
		edges[i] = Edge{U: ep[0], V: ep[1]}
	}
	half := len(edges) / 2
	s := NewServer(NewEngine(NewUndirected(n, edges[:half]), Options{Threads: 2}), ServerConfig{MaxInFlight: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(r) + 50)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Acquire()
				u, v := V(rng.Intn(n)), V(rng.Intn(n))
				got, err := sn.Connected(ctx, u, v)
				if err != nil {
					t.Errorf("Connected: %v", err)
					return
				}
				// Re-ask the same pinned snapshot: the answer must be stable
				// even while the writer publishes new epochs.
				again, err := sn.Connected(ctx, u, v)
				if err != nil || got != again {
					t.Errorf("snapshot answer changed: %v vs %v (err %v)", got, again, err)
					return
				}
			}
		}(r)
	}
	for lo := half; lo < len(edges); lo += 50 {
		hi := lo + 50
		if hi > len(edges) {
			hi = len(edges)
		}
		if _, err := s.Apply(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	res, err := s.CC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.SamePartition(res.Label, serialdfs.CC(full)); err != nil {
		t.Fatalf("final CC diverged: %v", err)
	}
}

func TestServerSingleflightAblation(t *testing.T) {
	// Identical answers with the dedup disabled — the knob must only change
	// scheduling, never results.
	g := gen.RandomUndirected(150, 450, 9)
	for _, disable := range []bool{false, true} {
		s := NewServer(NewEngine(g, Options{Threads: 2}),
			ServerConfig{DisableSingleflight: disable, MaxQueue: 64})
		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.CC(ctx)
				if err != nil {
					t.Errorf("disable=%v: %v", disable, err)
					return
				}
				if err := verify.SamePartition(res.Label, serialdfs.CC(g)); err != nil {
					t.Errorf("disable=%v: %v", disable, err)
				}
			}()
		}
		wg.Wait()
	}
}

func TestSnapshotHistogramCellDefensiveCopy(t *testing.T) {
	// Components {0,1,2}, {3,4}, {5}: histogram {3:1, 2:1, 1:1}.
	e := NewEngine(NewUndirected(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}), Options{Threads: 2})
	s := NewServer(e, ServerConfig{})
	ctx := context.Background()
	want := map[int]int{3: 1, 2: 1, 1: 1}

	h1, err := s.CCSizeHistogram(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, want) {
		t.Fatalf("histogram = %v, want %v", h1, want)
	}
	_, missesAfterFirst := s.SingleflightStats()

	// Trash the returned map: the cached histogram must be unaffected.
	h1[3] = 99
	h1[7777] = 1
	delete(h1, 1)
	h2, err := s.CCSizeHistogram(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, want) {
		t.Fatalf("histogram after caller mutation = %v, want %v (cached map leaked)", h2, want)
	}

	// Single-compute: the second query must come from the cell, not a fresh
	// census walk — no new singleflight miss anywhere in the chain.
	if _, misses := s.SingleflightStats(); misses != missesAfterFirst {
		t.Fatalf("second histogram query recomputed: misses %d -> %d", missesAfterFirst, misses)
	}
}

// TestSnapshotLargestCCOutOfRange pins that LargestCC's contains closures
// reject an out-of-range vertex from a caller instead of indexing past their
// bitmap or label array. Swept across partial/complete so every closure
// (traversal bitmap, census) is covered.
func TestSnapshotLargestCCOutOfRange(t *testing.T) {
	// A path of 8 vertices (the majority component: partial computation
	// stops after one traversal) plus two isolated vertices.
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}}
	const n = 10
	ctx := context.Background()
	for _, disablePartial := range []bool{false, true} {
		s := NewServer(NewEngine(NewUndirected(n, edges),
			Options{Threads: 2, DisablePartial: disablePartial}), ServerConfig{})
		res, err := s.LargestCC(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Size != 8 {
			t.Fatalf("partial=%v: Size = %d, want 8", !disablePartial, res.Size)
		}
		if !res.Contains(0) || res.Contains(8) {
			t.Fatalf("partial=%v: in-range Contains wrong", !disablePartial)
		}
		for _, v := range []V{n, n + 1, 1 << 20, NoVertex} {
			if res.Contains(v) {
				t.Fatalf("partial=%v: Contains(%d) = true for out-of-range vertex", !disablePartial, v)
			}
		}
	}

	// The census-backed closure must be safe too: warm the census first so
	// LargestCC answers from it.
	s := NewServer(NewEngine(NewUndirected(n, edges), Options{Threads: 2}), ServerConfig{})
	if _, err := s.CountCC(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := s.LargestCC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contains(NoVertex) || !res.Contains(7) {
		t.Fatal("census path: Contains wrong on boundary ids")
	}
}
