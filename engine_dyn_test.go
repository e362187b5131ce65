package aquila

// Engine-level coverage for the fully dynamic layer: ApplyUpdates semantics
// (promotion, arc accounting, validation, DisableDynamic), differential
// replay of mixed insert/delete schedules against the serial DFS oracle on
// the reconstructed per-epoch graph, the adversarial delete-the-bridge
// schedule, rebuild-threshold accounting for deletions, and a concurrent
// apply+query hammer for -race. The package-internal structure tests live in
// internal/dyn; this file proves the Engine plumbing above it.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/dyn"
	"aquila/internal/gen"
	"aquila/internal/verify"
)

func TestApplyUpdatesInsertOnlyStaysIncremental(t *testing.T) {
	e := NewEngine(NewUndirected(6, []Edge{{U: 0, V: 1}}), Options{Threads: 2})
	res, err := e.ApplyUpdates([]Update{
		Insert(1, 2), // new, merges
		Insert(2, 1), // duplicate (reversed)
		Insert(3, 3), // self-loop
		Insert(4, 5), // new, merges
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dynamic {
		t.Fatalf("insert-only batch promoted: res = %+v", res)
	}
	if e.Dynamic() {
		t.Fatalf("insert-only ApplyUpdates flipped Dynamic()")
	}
	if res.NewEdges != 2 || res.Merged != 2 || res.Components != 3 {
		t.Fatalf("res = %+v, want NewEdges=2 Merged=2 Components=3", res)
	}
	if !e.Connected(0, 2) || e.Connected(0, 3) || !e.Connected(4, 5) {
		t.Errorf("connectivity wrong after insert-only ApplyUpdates")
	}
}

func TestApplyUpdatesDeletePromotes(t *testing.T) {
	e := NewEngine(NewUndirected(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), Options{Threads: 2})
	if e.Dynamic() {
		t.Fatalf("fresh engine already dynamic")
	}

	// Deleting a cycle edge does not split; the triangle stays connected.
	res, err := e.ApplyUpdates([]Update{Delete(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dynamic || !e.Dynamic() {
		t.Fatalf("first delete did not promote: res = %+v", res)
	}
	if res.DeletedEdges != 1 || res.Split != 0 {
		t.Fatalf("cycle-edge delete res = %+v, want DeletedEdges=1 Split=0", res)
	}
	if !e.Connected(0, 1) {
		t.Errorf("triangle lost 0~1 after deleting one of three edges")
	}

	// Now 0-2-1 is a path: deleting {1,2} splits.
	res, err = e.ApplyUpdates([]Update{Delete(2, 1)}) // reversed endpoints
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedEdges != 1 || res.Split != 1 {
		t.Fatalf("bridge delete res = %+v, want DeletedEdges=1 Split=1", res)
	}
	if e.Connected(0, 1) || !e.Connected(0, 2) {
		t.Errorf("wrong partition after bridge delete")
	}
	if e.CountCC() != 4 { // {0,2} {1} {3} {4}
		t.Errorf("CountCC = %d, want 4", e.CountCC())
	}

	// Deleting a missing edge and a self-loop: no-ops.
	res, err = e.ApplyUpdates([]Update{Delete(3, 4), Delete(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedEdges != 0 || res.Split != 0 {
		t.Fatalf("no-op deletes res = %+v", res)
	}

	// Post-promotion, plain Apply routes through the forest too.
	ares, err := e.Apply([]Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Dynamic || ares.NewEdges != 1 || ares.Merged != 1 {
		t.Fatalf("post-promotion Apply res = %+v, want Dynamic NewEdges=1 Merged=1", ares)
	}
	if !e.Connected(0, 1) {
		t.Errorf("re-insert did not reconnect")
	}
}

func TestApplyUpdatesValidation(t *testing.T) {
	e := NewEngine(NewUndirected(3, []Edge{{U: 0, V: 1}}), Options{})
	if _, err := e.ApplyUpdates([]Update{Delete(0, 3)}); err == nil {
		t.Fatalf("out-of-range endpoint accepted")
	}
	if _, err := e.ApplyUpdates([]Update{{Op: UpdateOp(9), U: 0, V: 1}}); err == nil {
		t.Fatalf("unknown op accepted")
	}
	// Rejected batches are all-or-nothing: a valid delete ahead of a bad op
	// must not have been applied, and the engine must not have promoted.
	if _, err := e.ApplyUpdates([]Update{Delete(0, 1), {Op: UpdateOp(9), U: 0, V: 1}}); err == nil {
		t.Fatalf("batch with trailing bad op accepted")
	}
	if e.Dynamic() {
		t.Errorf("rejected batch promoted the engine")
	}
	if !e.Connected(0, 1) || e.CountCC() != 2 {
		t.Errorf("rejected batch mutated state")
	}
	// So is a batch that could take the forest past its int32 limits,
	// counting every insert as new.
	if err := dynFits(3, dyn.MaxEdges-1, []Update{Insert(0, 2), Delete(0, 1)}); err != nil {
		t.Errorf("batch within the forest's limits refused: %v", err)
	}
	if err := dynFits(3, dyn.MaxEdges-1, []Update{Insert(0, 2), Insert(1, 2)}); err == nil {
		t.Errorf("batch past the forest's edge limit accepted")
	}
	if err := dynFits(dyn.MaxVertices+1, 0, nil); err == nil {
		t.Errorf("vertex count past the forest's limit accepted")
	}
}

func TestApplyUpdatesDisableDynamic(t *testing.T) {
	e := NewEngine(NewUndirected(3, []Edge{{U: 0, V: 1}}), Options{DisableDynamic: true})
	if _, err := e.ApplyUpdates([]Update{Delete(0, 1)}); !errors.Is(err, ErrDeletesDisabled) {
		t.Fatalf("err = %v, want ErrDeletesDisabled", err)
	}
	if e.Dynamic() || !e.Connected(0, 1) {
		t.Errorf("rejected delete changed engine state")
	}
	// Inserts still work on the pinned engine.
	if _, err := e.ApplyUpdates([]Update{Insert(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if !e.Connected(0, 2) {
		t.Errorf("insert on pinned engine lost")
	}
}

func TestApplyUpdatesDirectedArcs(t *testing.T) {
	// Antiparallel arcs 0⇄1 plus arc 1→2. Deleting one direction of the pair
	// must keep the undirected edge; deleting the second drops it.
	e := NewDirectedEngine(NewDirected(3, []Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2},
	}), Options{Threads: 2})

	res, err := e.ApplyUpdates([]Update{Delete(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedArcs != 1 || res.DeletedEdges != 0 || res.Split != 0 {
		t.Fatalf("first direction res = %+v, want DeletedArcs=1 DeletedEdges=0", res)
	}
	if !e.Connected(0, 1) {
		t.Errorf("undirected edge lost while reverse arc remains")
	}
	if got := e.Directed().NumArcs(); got != 2 {
		t.Errorf("materialized arcs = %d, want 2", got)
	}

	// Deleting the missing direction again: no-op.
	if res, _ = e.ApplyUpdates([]Update{Delete(0, 1)}); res.DeletedArcs != 0 {
		t.Fatalf("repeat delete res = %+v", res)
	}

	res, err = e.ApplyUpdates([]Update{Delete(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedArcs != 1 || res.DeletedEdges != 1 || res.Split != 1 {
		t.Fatalf("second direction res = %+v, want DeletedArcs=1 DeletedEdges=1 Split=1", res)
	}
	if e.Connected(0, 1) {
		t.Errorf("undirected edge survived both arc deletions")
	}

	// SCC recomputes against the reshaped graph: 1→2 alone is three trivial
	// components; closing 2→1 merges {1,2}.
	if s, err := e.SCC(); err != nil || s.NumComponents != 3 {
		t.Fatalf("SCC after deletes = %+v, %v; want 3 components", s, err)
	}
	res, err = e.ApplyUpdates([]Update{Insert(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewArcs != 1 || res.NewEdges != 0 || res.Merged != 0 {
		t.Fatalf("closing arc res = %+v, want NewArcs=1 NewEdges=0", res)
	}
	if s, err := e.SCC(); err != nil || s.NumComponents != 2 {
		t.Fatalf("SCC after closing cycle = %+v, %v; want 2 components", s, err)
	}
	if got := e.Directed().NumArcs(); got != 2 {
		t.Errorf("final materialized arcs = %d, want 2", got)
	}
}

// dynEngineOracle mirrors an engine's edge state so each epoch's graph can
// be rebuilt from scratch for the serial DFS baseline. On directed engines
// the arc set is the ground truth (matching ApplyUpdates semantics: the
// undirected edge persists while either direction remains); on undirected
// engines the normalized edge set is tracked directly.
type dynEngineOracle struct {
	n        int
	directed bool
	arcs     map[[2]V]struct{}
	und      map[[2]V]struct{}
}

func newDynEngineOracle(n int, directed bool) *dynEngineOracle {
	return &dynEngineOracle{
		n: n, directed: directed,
		arcs: make(map[[2]V]struct{}),
		und:  make(map[[2]V]struct{}),
	}
}

func (o *dynEngineOracle) apply(batch []Update) {
	for _, up := range batch {
		if up.U == up.V {
			continue
		}
		if o.directed {
			if up.Op == OpInsert {
				o.arcs[[2]V{up.U, up.V}] = struct{}{}
			} else {
				delete(o.arcs, [2]V{up.U, up.V})
			}
			continue
		}
		k := [2]V{up.U, up.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if up.Op == OpInsert {
			o.und[k] = struct{}{}
		} else {
			delete(o.und, k)
		}
	}
}

// live returns the normalized undirected edge set for the current epoch.
func (o *dynEngineOracle) live() map[[2]V]struct{} {
	if !o.directed {
		return o.und
	}
	out := make(map[[2]V]struct{}, len(o.arcs))
	for a := range o.arcs {
		if a[0] > a[1] {
			a[0], a[1] = a[1], a[0]
		}
		out[a] = struct{}{}
	}
	return out
}

func (o *dynEngineOracle) labels() []uint32 {
	live := o.live()
	edges := make([]Edge, 0, len(live))
	for k := range live {
		edges = append(edges, Edge{U: k[0], V: k[1]})
	}
	return serialdfs.CC(NewUndirected(o.n, edges))
}

// TestApplyUpdatesMatchesOracle replays randomized mixed insert/delete
// schedules through engine variants (plain, seeded, directed) and
// cross-checks CC labels, component count and edge count against the serial
// DFS oracle on the reconstructed per-epoch graph after every batch.
func TestApplyUpdatesMatchesOracle(t *testing.T) {
	variants := []struct {
		name     string
		directed bool
		mk       func(n int) *Engine
	}{
		{"undirected", false, func(n int) *Engine {
			return NewEngine(NewUndirected(n, nil), Options{Threads: 2})
		}},
		{"seeded", false, func(n int) *Engine {
			// Start from a non-empty graph, so deletes also cut edges the
			// engine was built with.
			return NewEngine(gen.RandomUndirected(n, 3*n, 99), Options{Threads: 2})
		}},
		{"directed", true, func(n int) *Engine {
			return NewDirectedEngine(NewDirected(n, nil), Options{Threads: 2})
		}},
	}
	const n = 200
	batches := 30
	if testing.Short() {
		batches = 10
	}
	for _, variant := range variants {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 3; seed++ {
				e := variant.mk(n)
				o := newDynEngineOracle(n, variant.directed)
				// Mirror whatever the variant seeded the engine with.
				if variant.directed {
					d := e.Directed()
					for u := 0; u < d.NumVertices(); u++ {
						for _, v := range d.Out(V(u)) {
							o.arcs[[2]V{V(u), v}] = struct{}{}
						}
					}
				} else {
					for _, ep := range e.Undirected().EdgeEndpoints() {
						o.und[[2]V{ep[0], ep[1]}] = struct{}{}
					}
				}
				// mirror is whichever set deletions should be biased toward:
				// arcs on directed engines, normalized edges otherwise.
				mirror := o.und
				if variant.directed {
					mirror = o.arcs
				}
				rng := gen.NewRNG(seed*7919 + 13)
				for b := 0; b < batches; b++ {
					batch := make([]Update, 0, 24)
					for j := 0; j < 8+rng.Intn(16); j++ {
						u := V(rng.Intn(n))
						v := V(rng.Intn(n))
						if rng.Intn(3) == 0 && len(mirror) > 0 {
							// Bias deletes toward live edges so tree cuts and
							// replacement searches actually happen.
							for k := range mirror {
								u, v = k[0], k[1]
								break
							}
							batch = append(batch, Delete(u, v))
						} else if rng.Intn(4) == 0 {
							batch = append(batch, Delete(u, v))
						} else {
							batch = append(batch, Insert(u, v))
						}
					}
					if _, err := e.ApplyUpdates(batch); err != nil {
						t.Fatal(err)
					}
					o.apply(batch)

					truth := o.labels()
					if err := verify.SamePartition(e.CC().Label, truth); err != nil {
						t.Fatalf("%s seed %d batch %d: CC diverged: %v", variant.name, seed, b, err)
					}
					if got, want := e.CountCC(), distinct(truth); got != want {
						t.Fatalf("%s seed %d batch %d: CountCC = %d, oracle %d", variant.name, seed, b, got, want)
					}
					if got, want := int(e.Undirected().NumEdges()), len(o.live()); got != want {
						t.Fatalf("%s seed %d batch %d: materialized edges = %d, oracle %d", variant.name, seed, b, got, want)
					}
					// Spot-check the forest-backed Connected fast path.
					for j := 0; j < 12; j++ {
						u := V(rng.Intn(n))
						v := V(rng.Intn(n))
						if got, want := e.Connected(u, v), truth[u] == truth[v]; got != want {
							t.Fatalf("%s seed %d batch %d: Connected(%d,%d) = %v, oracle %v", variant.name, seed, b, u, v, got, want)
						}
					}
				}
			}
		})
	}
}

func distinct(label []uint32) int {
	seen := make(map[uint32]struct{})
	for _, l := range label {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// TestApplyUpdatesDeleteTheBridge drives the adversarial schedule through the
// whole engine: two 2-edge-connected halves joined by one bridge. Intra-half
// deletions must never split; every bridge deletion must. Adjacency-walking
// queries (Bridges) recompute against the reshaped graph each round.
func TestApplyUpdatesDeleteTheBridge(t *testing.T) {
	const half = 30
	n := 2 * half
	var base []Edge
	for i := 0; i < half; i++ {
		base = append(base,
			Edge{U: V(i), V: V((i + 1) % half)},
			Edge{U: V(half + i), V: V(half + (i+1)%half)})
	}
	rng := gen.NewRNG(41)
	for i := 0; i < half; i++ {
		a, b := V(rng.Intn(half)), V(rng.Intn(half))
		base = append(base, Edge{U: a, V: b}, Edge{U: half + a, V: half + b})
	}
	e := NewEngine(NewUndirected(n, base), Options{Threads: 2})

	rounds := 20
	if testing.Short() {
		rounds = 6
	}
	for round := 0; round < rounds; round++ {
		bu := V(rng.Intn(half))
		bv := V(half + rng.Intn(half))
		if _, err := e.ApplyUpdates([]Update{Insert(bu, bv)}); err != nil {
			t.Fatal(err)
		}
		if !e.Connected(0, half) || e.CountCC() != 1 {
			t.Fatalf("round %d: bridge did not join the halves", round)
		}
		// With exactly one inter-half edge, it is the unique bridge of the
		// whole graph (the halves are 2-edge-connected).
		if br := e.Bridges(); len(br) != 1 {
			t.Fatalf("round %d: Bridges() = %v, want exactly the inter-half edge", round, br)
		}
		// Intra-half churn: a cut inside a 2-edge-connected half never splits.
		for j := 0; j < 4; j++ {
			basev := V(0)
			if rng.Intn(2) == 1 {
				basev = half
			}
			u := basev + V(rng.Intn(half))
			v := basev + V(rng.Intn(half))
			res, err := e.ApplyUpdates([]Update{Delete(u, v)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Split != 0 {
				t.Fatalf("round %d: intra-half delete (%d,%d) split", round, u, v)
			}
			if _, err := e.ApplyUpdates([]Update{Insert(u, v)}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.ApplyUpdates([]Update{Delete(bu, bv)})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeletedEdges != 1 || res.Split != 1 {
			t.Fatalf("round %d: bridge delete res = %+v, want DeletedEdges=1 Split=1", round, res)
		}
		if e.Connected(0, half) || e.CountCC() != 2 {
			t.Fatalf("round %d: halves still joined after bridge delete", round)
		}
	}
}

// TestApplyUpdatesRebuildThreshold: deletions count toward the rebuild
// trigger exactly like inserts, and a post-rebuild engine still answers from
// the (authoritative) forest.
func TestApplyUpdatesRebuildThreshold(t *testing.T) {
	mk := func(th float64) *Engine {
		base := make([]Edge, 0, 20)
		for i := 0; i < 20; i++ {
			base = append(base, Edge{U: V(i), V: V(i + 1)})
		}
		return NewEngine(NewUndirected(21, base), Options{Threads: 2, RebuildThreshold: th})
	}

	// 11 deletions over 20 base edges crosses the 0.5 threshold.
	e := mk(0.5)
	batch := make([]Update, 0, 11)
	for i := 0; i < 11; i++ {
		batch = append(batch, Delete(V(i), V(i+1)))
	}
	res, err := e.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatalf("11 deletes over 20 base edges did not rebuild: %+v", res)
	}
	if res.Split != 11 || e.CountCC() != 12 {
		t.Fatalf("path teardown res = %+v, CountCC = %d; want Split=11, 12 comps", res, e.CountCC())
	}
	// The rebuild reset the counter: one more delete must not re-trigger.
	if res, _ = e.ApplyUpdates([]Update{Delete(15, 16)}); res.Rebuilt {
		t.Errorf("single delete after rebuild re-triggered")
	}
	truth := serialdfs.CC(e.Undirected())
	if err := verify.SamePartition(e.CC().Label, truth); err != nil {
		t.Fatalf("post-rebuild CC diverged: %v", err)
	}

	// Negative threshold disables rebuilds on the dynamic path too.
	e = mk(-1)
	if res, _ = e.ApplyUpdates(batch); res.Rebuilt {
		t.Errorf("RebuildThreshold<0 still rebuilt on deletes")
	}
}

// TestApplyUpdatesPreservesReaderSnapshots: graph views handed out before a
// deleting batch are immutable snapshots of their epoch.
func TestApplyUpdatesPreservesReaderSnapshots(t *testing.T) {
	e := NewEngine(NewUndirected(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}), Options{})
	before := e.Undirected()
	if _, err := e.ApplyUpdates([]Update{Delete(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if before.NumEdges() != 2 {
		t.Errorf("snapshot mutated: %d edges", before.NumEdges())
	}
	if e.Undirected().NumEdges() != 1 {
		t.Errorf("materialized view still holds the deleted edge")
	}
}

// TestEngineConcurrentUpdatesAndQuery races one writer applying mixed
// insert/delete batches against readers issuing the query mix. Unlike the
// insert-only hammer there is no monotonicity to assert — the invariant under
// -race is simply that every answer is internally consistent and the final
// state matches a from-scratch engine.
func TestEngineConcurrentUpdatesAndQuery(t *testing.T) {
	const (
		n       = 800
		readers = 4
	)
	e := NewEngine(NewUndirected(n, nil), Options{Threads: 2})
	// Promote up front so every racing batch takes the dynamic path.
	if _, err := e.ApplyUpdates([]Update{Insert(0, 1), Delete(0, 1)}); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(id) + 500)
			for !done.Load() {
				u := V(rng.Intn(n))
				v := V(rng.Intn(n))
				e.Connected(u, v)
				if c := e.CountCC(); c < 1 || c > n {
					errc <- "CountCC out of range"
					return
				}
				if rng.Intn(40) == 0 {
					if lab := e.CC().Label; len(lab) != n {
						errc <- "CC label length wrong"
						return
					}
				}
				if rng.Intn(40) == 0 {
					e.LargestCC()
				}
			}
		}(r)
	}

	o := newDynEngineOracle(n, false)
	rng := gen.NewRNG(77)
	for b := 0; b < 120; b++ {
		batch := make([]Update, 0, 16)
		for j := 0; j < 16; j++ {
			u := V(rng.Intn(n))
			v := V(rng.Intn(n))
			if rng.Intn(3) == 0 && len(o.und) > 0 {
				for k := range o.und {
					u, v = k[0], k[1]
					break
				}
				batch = append(batch, Delete(u, v))
			} else {
				batch = append(batch, Insert(u, v))
			}
		}
		if _, err := e.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		o.apply(batch)
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
	if err := verify.SamePartition(e.CC().Label, o.labels()); err != nil {
		t.Fatalf("final state diverged from oracle: %v", err)
	}
}
