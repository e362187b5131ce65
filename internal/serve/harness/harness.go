// Package harness is the linearizability-style concurrency test layer for
// aquila.Server (the PR 4 tentpole's proof obligation): randomized
// reader/writer schedules run against a live Server while every reader
// records (epoch, query, result) triples from pinned snapshots; afterwards
// each record is checked exactly against a serial-DFS oracle evaluated on the
// reconstructed graph of that epoch.
//
// The property being checked is snapshot consistency: an answer obtained
// from a snapshot pinned at epoch k must equal the oracle's answer on
// "base graph + the first k update batches", no matter how reads interleave
// with concurrent update batches, cancellations, or deadline expiries. Since
// the PR 9 dynamic layer, batches mix insertions with deletions — epochs can
// shrink, so the oracle replays each batch's ops in order (with the engine's
// delete semantics: directed arcs are authoritative, the undirected edge
// falls only when both directions are gone) to reconstruct every epoch's
// graph. Freedom from torn reads still follows: a record can never mix state
// from two epochs without failing its epoch's oracle.
package harness

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"aquila"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/verify"
)

// T is the subset of *testing.T the harness reports through (kept as an
// interface so the package does not import testing into non-test binaries).
type T interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// Class is one graph family schedules run over. Build must be deterministic
// in seed and must return a simple base edge list (no duplicates, no
// self-loops) so the oracle's reconstruction matches the engine's dedup.
// Batches may mix insert and delete ops; a batch containing a delete routes
// through Server.ApplyUpdates and promotes the engine to the dynamic layer.
type Class struct {
	Name     string
	Directed bool
	Build    func(seed uint64) (n int, base []aquila.Edge, batches [][]aquila.Update)
}

// Config sizes one RunClass invocation.
type Config struct {
	// Schedules is the number of randomized interleavings to run.
	Schedules int
	// MaxReaders bounds the concurrent readers per schedule (>=1).
	MaxReaders int
	// OpsPerReader is the number of queries each reader issues.
	OpsPerReader int
	// Seed offsets the deterministic schedule seeds, so different tiers
	// (unit, stress, race) explore different interleavings.
	Seed uint64
}

type opKind int

const (
	opConnected opKind = iota
	opCountCC
	opIsConnected
	opLargest
	opCC
	opSCC
	opAPs
	opBridges
	opHistogram
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"Connected", "CountCC", "IsConnected", "LargestCC",
		"CC", "SCC", "APs", "Bridges", "Histogram"}[k]
}

// record is one completed query as observed by a reader.
type record struct {
	epoch uint64
	kind  opKind
	u, v  aquila.V // opConnected endpoints; opLargest membership sample in u

	boolRes    bool
	intRes     int
	labels     []uint32      // opCC / opSCC: decomposition labels (shared, read-only)
	pairs      [][2]aquila.V // opBridges
	aps        []aquila.V    // opAPs
	largePivot aquila.V      // opLargest
	hist       map[int]int   // opHistogram
}

// RunClass executes cfg.Schedules randomized schedules over the class and
// fails t on the first oracle divergence.
func RunClass(t T, cls Class, cfg Config) {
	t.Helper()
	for i := 0; i < cfg.Schedules; i++ {
		seed := cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		if err := runSchedule(cls, cfg, seed); err != nil {
			t.Fatalf("class %s schedule %d (seed %#x): %v", cls.Name, i, seed, err)
		}
	}
}

// runSchedule runs one randomized interleaving and checks every record.
func runSchedule(cls Class, cfg Config, seed uint64) error {
	rng := gen.NewRNG(seed)
	n, base, batches := cls.Build(seed)

	threads := 1
	if rng.Intn(2) == 0 {
		threads = 2
	}
	opt := aquila.Options{Threads: threads}
	if rng.Intn(4) == 0 {
		// Occasionally exercise the cache-aware relabeling layer: snapshot
		// answers must be identical in original ids.
		opt.Reorder = aquila.ReorderDegree
	}

	var eng *aquila.Engine
	if cls.Directed {
		eng = aquila.NewDirectedEngine(aquila.NewDirected(n, base), opt)
	} else {
		eng = aquila.NewEngine(aquila.NewUndirected(n, base), opt)
	}
	srv := aquila.NewServer(eng, aquila.ServerConfig{
		MaxInFlight: 1 + rng.Intn(3),
		MaxQueue:    256, // deep enough that tiny test kernels never shed load
	})

	readers := 1 + rng.Intn(cfg.MaxReaders)
	recs := make([][]record, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recs[r], errs[r] = runReader(srv, cls, n, cfg.OpsPerReader, seed+uint64(r)+1)
		}(r)
	}
	// The writer runs on this goroutine, racing the readers batch by batch.
	for bi, b := range batches {
		if _, err := srv.ApplyUpdates(b); err != nil {
			return fmt.Errorf("ApplyUpdates batch %d: %w", bi, err)
		}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("reader %d: %w", r, err)
		}
	}
	if got, want := srv.Epoch(), uint64(len(batches)); got != want {
		return fmt.Errorf("final epoch = %d, want %d", got, want)
	}

	orc := newOracle(cls, n, base, batches)
	for r, rs := range recs {
		for i := range rs {
			if err := orc.check(&rs[i]); err != nil {
				return fmt.Errorf("reader %d op %d: %w", r, i, err)
			}
		}
	}
	return nil
}

// runReader issues ops against pinned snapshots, recording each answer with
// the snapshot's epoch. Most ops pin the live epoch; one in four goes back to
// the reader's first snapshot, by then usually several epochs old. A slice
// of the ops run with cancelled or near-expired contexts: those may fail
// (with a context error) — what they must never do is return a wrong answer
// or wedge the server.
func runReader(srv *aquila.Server, cls Class, n, ops int, seed uint64) ([]record, error) {
	rng := gen.NewRNG(seed)
	out := make([]record, 0, ops)
	first := srv.Acquire()
	for i := 0; i < ops; i++ {
		sn := srv.Acquire()
		if rng.Intn(4) == 0 {
			sn = first
		}
		rec := record{epoch: sn.Epoch(), kind: opKind(rng.Intn(int(numOpKinds)))}
		if rec.kind == opSCC && !cls.Directed {
			rec.kind = opCC
		}

		ctx := context.Background()
		switch rng.Intn(8) {
		case 0: // pre-cancelled: must fail fast, never wedge
			c, cancel := context.WithCancel(ctx)
			cancel()
			ctx = c
		case 1: // racing deadline: either outcome is fine, answers must be right
			c, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
			defer cancel()
			ctx = c
		}

		var err error
		switch rec.kind {
		case opConnected:
			rec.u, rec.v = aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))
			rec.boolRes, err = sn.Connected(ctx, rec.u, rec.v)
		case opCountCC:
			rec.intRes, err = sn.CountCC(ctx)
		case opIsConnected:
			rec.boolRes, err = sn.IsConnected(ctx)
		case opLargest:
			var res *aquila.LargestResult
			res, err = sn.LargestCC(ctx)
			if err == nil {
				rec.intRes = res.Size
				rec.largePivot = res.Pivot
				rec.u = aquila.V(rng.Intn(n))
				rec.boolRes = res.Contains(rec.u)
			}
		case opCC:
			var res *aquila.CCResult
			res, err = sn.CC(ctx)
			if err == nil {
				rec.labels = res.Label
			}
		case opSCC:
			var res *aquila.SCCResult
			res, err = sn.SCC(ctx)
			if err == nil {
				rec.labels = res.Label
			}
		case opAPs:
			rec.aps, err = sn.ArticulationPoints(ctx)
		case opBridges:
			rec.pairs, err = sn.Bridges(ctx)
		case opHistogram:
			rec.hist, err = sn.CCSizeHistogram(ctx)
		}
		if err != nil {
			if context.Cause(ctx) == nil {
				return nil, fmt.Errorf("%v on epoch %d failed with live context: %w", rec.kind, rec.epoch, err)
			}
			continue // context-induced failure: legal, nothing to record
		}
		// Note a pre-cancelled context may still be answered from a warm
		// cache (no kernel needed) — then the answer is recorded and must
		// check out like any other.
		out = append(out, rec)
	}
	return out, nil
}

// oracle lazily evaluates serial-DFS ground truth per epoch over
// reconstructed graphs.
type oracle struct {
	und []*graph.Undirected // per-epoch undirected view
	dir []*graph.Directed   // per-epoch directed graph (directed classes)

	cc      [][]uint32
	sizes   []map[uint32]int // per-epoch component sizes, keyed by cc label
	scc     [][]uint32
	aps     [][]bool
	bridges [][]bool
}

// newOracle reconstructs every epoch's graph: epoch k holds the base with
// the first k batches replayed op by op — insert dedup exactly like
// Engine.Apply, delete semantics exactly like Engine.ApplyUpdates (on
// directed classes the arc set is authoritative; the undirected projection
// keeps an edge while either direction remains).
func newOracle(cls Class, n int, base []aquila.Edge, batches [][]aquila.Update) *oracle {
	epochs := len(batches) + 1
	o := &oracle{
		und:     make([]*graph.Undirected, epochs),
		cc:      make([][]uint32, epochs),
		sizes:   make([]map[uint32]int, epochs),
		aps:     make([][]bool, epochs),
		bridges: make([][]bool, epochs),
	}
	if cls.Directed {
		o.dir = make([]*graph.Directed, epochs)
		o.scc = make([][]uint32, epochs)
		arcs := make(map[[2]aquila.V]struct{}, len(base))
		for _, e := range base {
			if e.U != e.V {
				arcs[[2]aquila.V{e.U, e.V}] = struct{}{}
			}
		}
		build := func() *graph.Directed {
			es := make([]aquila.Edge, 0, len(arcs))
			for k := range arcs {
				es = append(es, aquila.Edge{U: k[0], V: k[1]})
			}
			return aquila.NewDirected(n, es)
		}
		o.dir[0] = build()
		o.und[0] = graph.Undirect(o.dir[0])
		for i, b := range batches {
			for _, up := range b {
				if up.U == up.V {
					continue
				}
				k := [2]aquila.V{up.U, up.V}
				if up.Op == aquila.OpInsert {
					arcs[k] = struct{}{}
				} else {
					delete(arcs, k)
				}
			}
			o.dir[i+1] = build()
			o.und[i+1] = graph.Undirect(o.dir[i+1])
		}
		return o
	}
	edges := make(map[[2]aquila.V]struct{}, len(base))
	for _, e := range base {
		if e.U != e.V {
			edges[normPair([2]aquila.V{e.U, e.V})] = struct{}{}
		}
	}
	build := func() *graph.Undirected {
		es := make([]aquila.Edge, 0, len(edges))
		for k := range edges {
			es = append(es, aquila.Edge{U: k[0], V: k[1]})
		}
		return aquila.NewUndirected(n, es)
	}
	o.und[0] = build()
	for i, b := range batches {
		for _, up := range b {
			if up.U == up.V {
				continue
			}
			k := normPair([2]aquila.V{up.U, up.V})
			if up.Op == aquila.OpInsert {
				edges[k] = struct{}{}
			} else {
				delete(edges, k)
			}
		}
		o.und[i+1] = build()
	}
	return o
}

func (o *oracle) ccAt(ep uint64) []uint32 {
	if o.cc[ep] == nil {
		o.cc[ep] = serialdfs.CC(o.und[ep])
	}
	return o.cc[ep]
}

func (o *oracle) sizesAt(ep uint64) map[uint32]int {
	if o.sizes[ep] == nil {
		o.sizes[ep] = componentSizes(o.ccAt(ep))
	}
	return o.sizes[ep]
}

func (o *oracle) sccAt(ep uint64) []uint32 {
	if o.scc[ep] == nil {
		o.scc[ep] = serialdfs.SCC(o.dir[ep])
	}
	return o.scc[ep]
}

func (o *oracle) apsAt(ep uint64) []bool {
	if o.aps[ep] == nil {
		aps := serialdfs.APs(o.und[ep])
		if aps == nil {
			aps = make([]bool, o.und[ep].NumVertices())
		}
		o.aps[ep] = aps
	}
	return o.aps[ep]
}

func (o *oracle) bridgesAt(ep uint64) []bool {
	if o.bridges[ep] == nil {
		br := serialdfs.Bridges(o.und[ep])
		if br == nil {
			br = make([]bool, 0)
		}
		o.bridges[ep] = br
	}
	return o.bridges[ep]
}

func countDistinct(labels []uint32) int {
	seen := make(map[uint32]struct{}, 16)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

func componentSizes(labels []uint32) map[uint32]int {
	sizes := make(map[uint32]int, len(labels))
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// check validates one record against the oracle at the record's epoch.
func (o *oracle) check(r *record) error {
	switch r.kind {
	case opConnected:
		truth := o.ccAt(r.epoch)
		if want := truth[r.u] == truth[r.v]; r.boolRes != want {
			return fmt.Errorf("epoch %d: Connected(%d,%d) = %v, oracle %v", r.epoch, r.u, r.v, r.boolRes, want)
		}
	case opCountCC:
		if want := len(o.sizesAt(r.epoch)); r.intRes != want {
			return fmt.Errorf("epoch %d: CountCC = %d, oracle %d", r.epoch, r.intRes, want)
		}
	case opIsConnected:
		if want := len(o.sizesAt(r.epoch)) == 1; r.boolRes != want {
			return fmt.Errorf("epoch %d: IsConnected = %v, oracle %v", r.epoch, r.boolRes, want)
		}
	case opLargest:
		truth := o.ccAt(r.epoch)
		sizes := o.sizesAt(r.epoch)
		maxSize := 0
		for _, s := range sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		if r.intRes != maxSize {
			return fmt.Errorf("epoch %d: LargestCC.Size = %d, oracle %d", r.epoch, r.intRes, maxSize)
		}
		// The pivot must sit in a maximum-size component, and the membership
		// sample must agree with "same component as the pivot" (ties between
		// equal-size components make the pivot's component the only
		// well-defined reference).
		if sizes[truth[r.largePivot]] != maxSize {
			return fmt.Errorf("epoch %d: LargestCC pivot %d lies in a size-%d component, max is %d",
				r.epoch, r.largePivot, sizes[truth[r.largePivot]], maxSize)
		}
		if want := truth[r.u] == truth[r.largePivot]; r.boolRes != want {
			return fmt.Errorf("epoch %d: LargestCC.Contains(%d) = %v, oracle %v", r.epoch, r.u, r.boolRes, want)
		}
	case opHistogram:
		want := make(map[int]int)
		for _, s := range o.sizesAt(r.epoch) {
			want[s]++
		}
		if !maps.Equal(r.hist, want) {
			return fmt.Errorf("epoch %d: CCSizeHistogram = %v, oracle %v", r.epoch, r.hist, want)
		}
	case opCC:
		if err := verify.SamePartition(r.labels, o.ccAt(r.epoch)); err != nil {
			return fmt.Errorf("epoch %d: CC: %w", r.epoch, err)
		}
	case opSCC:
		if err := verify.SamePartition(r.labels, o.sccAt(r.epoch)); err != nil {
			return fmt.Errorf("epoch %d: SCC: %w", r.epoch, err)
		}
	case opAPs:
		want := o.apsAt(r.epoch)
		got := make([]bool, len(want))
		for _, v := range r.aps {
			got[v] = true
		}
		if err := verify.SameBoolSet(got, want, "AP"); err != nil {
			return fmt.Errorf("epoch %d: %w", r.epoch, err)
		}
	case opBridges:
		wantFlags := o.bridgesAt(r.epoch)
		eps := o.und[r.epoch].EdgeEndpoints()
		want := make(map[[2]aquila.V]struct{})
		for id, b := range wantFlags {
			if b {
				want[normPair(eps[id])] = struct{}{}
			}
		}
		got := make(map[[2]aquila.V]struct{})
		for _, p := range r.pairs {
			got[normPair(p)] = struct{}{}
		}
		if len(got) != len(want) {
			return fmt.Errorf("epoch %d: %d bridges, oracle %d", r.epoch, len(got), len(want))
		}
		for p := range want {
			if _, ok := got[p]; !ok {
				return fmt.Errorf("epoch %d: oracle bridge %v missing", r.epoch, p)
			}
		}
	}
	return nil
}

func normPair(p [2]aquila.V) [2]aquila.V {
	if p[0] > p[1] {
		p[0], p[1] = p[1], p[0]
	}
	return p
}

// Classes returns the harness's standard graph families: a sparse random
// undirected graph (several mid-size components), a social-like undirected
// graph (one giant component plus a long tail), a directed graph with cyclic
// structure for SCC coverage, a delete-adversarial bridge-churn family whose
// batches repeatedly cut and re-add the only inter-half edge, and an
// insert-only stream that keeps the engine on the union-find census. All are
// small enough that thousands of schedules run in seconds.
func Classes() []Class {
	return []Class{
		{
			Name: "sparse-random",
			Build: func(seed uint64) (int, []aquila.Edge, [][]aquila.Update) {
				rng := gen.NewRNG(seed)
				n := 48 + rng.Intn(80)
				base := randomEdges(rng, n, n) // avg degree ~2: fragmented
				return n, base, updateBatches(rng, n, base, 2+rng.Intn(4), 1+rng.Intn(8))
			},
		},
		{
			Name: "social-tail",
			Build: func(seed uint64) (int, []aquila.Edge, [][]aquila.Update) {
				rng := gen.NewRNG(seed)
				giant := 60 + rng.Intn(60)
				tail := 24 + rng.Intn(24)
				n := giant + tail
				// Dense-ish giant prefix, untouched tail of small pieces.
				base := randomEdges(rng, giant, giant*2)
				for v := giant; v+1 < n; v += 2 + rng.Intn(2) {
					base = append(base, aquila.Edge{U: aquila.V(v), V: aquila.V(v + 1)})
				}
				base = dedup(base)
				return n, base, updateBatches(rng, n, base, 2+rng.Intn(4), 1+rng.Intn(6))
			},
		},
		{
			Name:     "directed-cyclic",
			Directed: true,
			Build: func(seed uint64) (int, []aquila.Edge, [][]aquila.Update) {
				rng := gen.NewRNG(seed)
				n := 40 + rng.Intn(60)
				var base []aquila.Edge
				// A few directed rings plus random chords: rich SCC structure.
				for start := 0; start < n; {
					size := 3 + rng.Intn(8)
					if start+size > n {
						size = n - start
					}
					for i := 0; i < size; i++ {
						base = append(base, aquila.Edge{
							U: aquila.V(start + i), V: aquila.V(start + (i+1)%size)})
					}
					start += size
				}
				base = append(base, randomEdges(rng, n, n/2)...)
				base = dedup(base)
				return n, base, updateBatches(rng, n, base, 2+rng.Intn(4), 1+rng.Intn(6))
			},
		},
		{
			Name: "bridge-churn",
			Build: func(seed uint64) (int, []aquila.Edge, [][]aquila.Update) {
				rng := gen.NewRNG(seed)
				half := 12 + rng.Intn(16)
				n := 2 * half
				var base []aquila.Edge
				// Two rings with chords (2-edge-connected halves) plus the
				// one bridge every delete batch goes after.
				for i := 0; i < half; i++ {
					base = append(base,
						aquila.Edge{U: aquila.V(i), V: aquila.V((i + 1) % half)},
						aquila.Edge{U: aquila.V(half + i), V: aquila.V(half + (i+1)%half)})
				}
				for i := 0; i < half; i++ {
					a, b := aquila.V(rng.Intn(half)), aquila.V(rng.Intn(half))
					base = append(base, aquila.Edge{U: a, V: b},
						aquila.Edge{U: aquila.V(half) + a, V: aquila.V(half) + b})
				}
				bridge := aquila.Edge{U: 0, V: aquila.V(half)}
				base = append(base, bridge)
				base = dedup(base)
				// Cut-heavy epochs: odd batches cut the bridge (every cut is
				// a tree-edge deletion with no replacement — a component
				// split), even batches relink it, with intra-half churn mixed
				// into both.
				count := 4 + rng.Intn(4)
				batches := make([][]aquila.Update, count)
				for i := range batches {
					var b []aquila.Update
					if i%2 == 0 {
						b = append(b, aquila.Delete(bridge.U, bridge.V))
					} else {
						b = append(b, aquila.Insert(bridge.U, bridge.V))
					}
					for j := rng.Intn(3); j > 0; j-- {
						off := aquila.V(rng.Intn(2) * half)
						u := off + aquila.V(rng.Intn(half))
						v := off + aquila.V(rng.Intn(half))
						// Cut-then-relink inside one half: never splits.
						b = append(b, aquila.Delete(u, v), aquila.Insert(u, v))
					}
					batches[i] = b
				}
				return n, base, batches
			},
		},
		{
			// Insert-only batches over one giant and many small components.
			// Every other class deletes, which retires the union-find; here
			// each epoch publishes an advanced census overlay. With 1–1.5k
			// vertices, most of them isolated, the overlay bound (|V|/512)
			// is 2 labels and most batches merge once, so the overlay fills
			// and re-bases every few batches. One batch lets a component
			// below the giant, whose minimum id is smaller, absorb it: every
			// giant vertex, and any overlay entry pointing at the giant,
			// moves to the small one's label.
			Name: "insert-stream",
			Build: func(seed uint64) (int, []aquila.Edge, [][]aquila.Update) {
				rng := gen.NewRNG(seed)
				n := 1024 + rng.Intn(512)
				lo, hi := n/4, n/4+n/8
				pick := func(from, to int) aquila.V { return aquila.V(from + rng.Intn(to-from)) }
				// Pairs in a band at the bottom and one just above the giant,
				// which is a path with random chords.
				var base []aquila.Edge
				for _, band := range [2]int{0, hi} {
					for v := band; v+1 < band+n/16; v += 2 + rng.Intn(2) {
						base = append(base, aquila.Edge{U: aquila.V(v), V: aquila.V(v + 1)})
					}
				}
				for v := lo; v+1 < hi; v++ {
					base = append(base, aquila.Edge{U: aquila.V(v), V: aquila.V(v + 1)})
				}
				for i := 0; i < n/64; i++ {
					if u, v := pick(lo, hi), pick(lo, hi); u != v {
						base = append(base, aquila.Edge{U: u, V: v})
					}
				}
				base = dedup(base)
				count := 5 + rng.Intn(3)
				absorb := 1 + rng.Intn(count-1)
				batches := make([][]aquila.Update, count)
				for i := range batches {
					var b []aquila.Update
					switch {
					case i == absorb:
						b = append(b, aquila.Insert(pick(0, n/16), pick(lo, hi)))
					case rng.Intn(4) == 0:
						b = append(b, aquila.Insert(pick(0, n), pick(0, n)))
					default:
						// From above: the giant keeps its label.
						b = append(b, aquila.Insert(pick(hi, n), pick(lo, hi)))
					}
					b = append(b, aquila.Insert(pick(lo, hi), pick(lo, hi))) // inside the giant
					batches[i] = append(b, b[0])                             // and a duplicate
				}
				return n, base, batches
			},
		},
	}
}

// randomEdges draws m simple random edges over n vertices (deduplicated).
func randomEdges(rng *gen.RNG, n, m int) []aquila.Edge {
	edges := make([]aquila.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, aquila.Edge{U: u, V: v})
	}
	return dedup(edges)
}

// updateBatches draws `count` mixed insert/delete batches of up to `maxOps`
// ops each. Deletes are biased toward edges known to be live (base edges and
// earlier inserts, tracked in a pool) so they actually cut tree edges;
// duplicates, misses, and re-deletes are all fair game — the engine and the
// oracle reconstruction apply identical semantics.
func updateBatches(rng *gen.RNG, n int, base []aquila.Edge, count, maxOps int) [][]aquila.Update {
	pool := make([]aquila.Edge, len(base))
	copy(pool, base)
	batches := make([][]aquila.Update, count)
	for i := range batches {
		k := 1 + rng.Intn(maxOps)
		b := make([]aquila.Update, 0, k)
		for j := 0; j < k; j++ {
			if rng.Intn(3) == 0 && len(pool) > 0 {
				e := pool[rng.Intn(len(pool))]
				b = append(b, aquila.Delete(e.U, e.V))
				continue
			}
			e := aquila.Edge{U: aquila.V(rng.Intn(n)), V: aquila.V(rng.Intn(n))}
			b = append(b, aquila.Insert(e.U, e.V))
			if e.U != e.V {
				pool = append(pool, e)
			}
		}
		batches[i] = b
	}
	return batches
}

// dedup removes self-loops and duplicate undirected pairs, preserving order.
// Directed callers rely on (u,v) vs (v,u) being distinct, so ordering is
// normalized only through the map key for undirected use via normPair at
// check time; here both orientations are kept distinct to stay usable for
// both graph kinds — the engine and the oracle apply their own dedup rules
// on top.
func dedup(edges []aquila.Edge) []aquila.Edge {
	seen := make(map[[2]aquila.V]struct{}, len(edges))
	out := edges[:0]
	for _, e := range edges {
		k := [2]aquila.V{e.U, e.V}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, e)
	}
	return out
}
