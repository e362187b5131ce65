package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/graph"
)

// tick quantizes open-loop arrivals. On the 2-thread reference host any
// sleep below 1 ms overshoots to about 1 ms, so arrivals land on absolute
// 2 ms ticks and several requests share a tick instead of each paying the
// timer floor.
const tick = 2 * time.Millisecond

// workload is one input graph and one traffic mix over it. Every workload
// runs the same phases — cold-engine analytics rounds, cold boots of
// aquilad, an open loop against it, closed-loop peak reads — so every
// end-to-end metric is measured on every workload; the graph shape and the
// mix decide which layers do the work.
type workload struct {
	Name string
	Why  string
	// Text makes the workload ship its graph as a text edge list (parse +
	// build on every load) instead of an mmap-able .aqg container.
	Text bool
	Mix  mix
	// AnalyticsShare and OpenShare split --seconds between the analytics
	// rounds and the open loop; the peak-throughput windows get the rest.
	AnalyticsShare, OpenShare float64
	Graph                     func(seed uint64, smoke bool) *graph.Directed
}

// mix is an open-loop traffic mix. Connection 0 carries the point reads,
// connection 1 the applies and decompositions, so a read never queues behind
// a slow apply at the client.
type mix struct {
	Reads, Applies, Decomps int // arrivals per second
	Inserts, Deletes        int // edges per apply batch
	DecompPaths             []string
}

// The rates keep every connection well below saturation on the 2-thread
// reference host, where a read costs about 0.2 ms of server time, an
// insert-only apply 1–9 ms and a dynamic publish about 0.3 ms per thousand
// arcs: near saturation an open loop measures its own backlog, which does not
// repeat from run to run.
var readInsert = mix{Reads: 1000, Applies: 10, Decomps: 5, Inserts: 64,
	DecompPaths: []string{"/v1/largest-cc", "/v1/histogram"}}

var workloads = []workload{
	{
		Name: "giant",
		Why:  "one dominant 300k-vertex component, mmap'd .aqg: giant BFS/FW-BW/BiCC dominate analytics; insert-only serving never builds a CSR",
		Mix:  readInsert, AnalyticsShare: 0.5, OpenShare: 0.35,
		Graph: func(seed uint64, smoke bool) *graph.Directed {
			return gen.Social(gen.SocialConfig{GiantVertices: scaled(300_000, smoke), GiantAvgDeg: 6,
				MutualFrac: 0.5, Seed: seed})
		},
	},
	{
		Name: "fragmented",
		Why:  "20k small components plus 3000 ring SCCs from a text edge list: trim, small-task tail and parse+build dominate",
		Text: true,
		Mix:  readInsert, AnalyticsShare: 0.5, OpenShare: 0.35,
		Graph: fragmentedGraph,
	},
	{
		Name: "churn",
		Why:  "24k-vertex social graph under insert+delete batches: dynamic forest, CSR rebuild per publish, kernels on fresh epochs",
		Mix: mix{Reads: 400, Applies: 2, Decomps: 2, Inserts: 50, Deletes: 50,
			DecompPaths: []string{"/v1/bridges", "/v1/scc"}},
		AnalyticsShare: 0.25, OpenShare: 0.6,
		Graph: func(seed uint64, smoke bool) *graph.Directed {
			return gen.Social(gen.SocialConfig{GiantVertices: scaled(20_000, smoke), GiantAvgDeg: 6,
				SmallComps: scaled(800, smoke), SmallMaxSize: 6, Isolated: scaled(400, smoke),
				MutualFrac: 0.4, Seed: seed})
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a size 100× for -smoke runs.
func scaled(n int, smoke bool) int {
	if smoke {
		return max(n/100, 4)
	}
	return n
}

// fragmentedGraph is the disjoint union of a Friendster-like social graph
// (giant plus a heavy tail of small components and isolated vertices) and a
// shuffled chain of small rings. The rings take the highest ids, so the text
// edge list, whose largest id fixes the vertex count, keeps the social
// graph's trailing isolated vertices.
func fragmentedGraph(seed uint64, smoke bool) *graph.Directed {
	social := gen.Social(gen.SocialConfig{GiantVertices: scaled(100_000, smoke), GiantAvgDeg: 4,
		SmallComps: scaled(20_000, smoke), SmallMaxSize: 150, Isolated: scaled(10_000, smoke),
		MutualFrac: 0.45, Seed: seed})
	rings := gen.Rings(gen.RingsConfig{Rings: scaled(3000, smoke), MinSize: 3, MaxSize: 40,
		Shuffle: true, Seed: seed ^ 0x5eed})
	base := social.NumVertices()
	edges := arcs(social)
	for _, e := range arcs(rings) {
		edges = append(edges, graph.Edge{U: e.U + graph.V(base), V: e.V + graph.V(base)})
	}
	return graph.BuildDirected(base+rings.NumVertices(), edges)
}

// arcs lists g's arcs in CSR order.
func arcs(g *graph.Directed) []graph.Edge {
	out := make([]graph.Edge, 0, g.NumArcs())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(graph.V(u)) {
			out = append(out, graph.Edge{U: graph.V(u), V: v})
		}
	}
	return out
}

// subSeed derives an independent generator seed for one use of the run seed.
func subSeed(seed uint64, name string, use uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, use)
	return h.Sum64()
}

// writeGraph stores g as the workload ships it: an .aqg container, or a text
// edge list.
func writeGraph(path string, g *graph.Directed, text bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if text {
		err = graph.WriteEdgeList(bw, g)
	} else {
		err = graph.WriteContainer(bw, g)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// op is one open-loop request. Due is its arrival time as an offset from the
// loop start, always a multiple of tick.
type op struct {
	Due  time.Duration `json:"due"`
	Conn int           `json:"conn"`
	Kind string        `json:"kind"` // read, apply, decomp
	U    graph.V       `json:"u,omitempty"`
	V    graph.V       `json:"v,omitempty"`
	Path string        `json:"path,omitempty"`
	Ins  [][2]graph.V  `json:"ins,omitempty"`
	Del  [][2]graph.V  `json:"del,omitempty"`
}

// plan is a workload's seeded op log. Warmup, when present, is an apply sent
// before the loop starts and left out of every latency.
type plan struct {
	Vertices int  `json:"vertices"`
	Warmup   *op  `json:"warmup,omitempty"`
	Ops      []op `json:"ops"`
	// final holds the arcs live after every apply: the oracle input for the
	// end-of-run checks. It is derived data, not part of the log.
	final []graph.Edge
}

// makePlan draws the op log for dur seconds of mix m over g. Deletes pick
// live arcs from a mirror of the served graph; every other delete also takes
// the reverse arc, so the undirected edge really goes and cuts (and splits)
// happen.
func makePlan(g *graph.Directed, m mix, dur time.Duration, seed uint64) *plan {
	rng := gen.NewRNG(seed)
	n := g.NumVertices()
	p := &plan{Vertices: n}
	var mir *mirror
	var inserted []graph.Edge
	if m.Deletes > 0 {
		mir = newMirror(arcs(g))
	}
	batch := func(due time.Duration, inserts int) op {
		o := op{Due: due, Conn: 1, Kind: "apply"}
		var del [][2]graph.V
		if mir != nil {
			del = mir.pick(rng, m.Deletes)
		}
		for i := 0; i < inserts; i++ {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if u == v {
				v = graph.V((int(v) + 1) % n)
			}
			o.Ins = append(o.Ins, [2]graph.V{u, v})
		}
		// The server applies a batch's inserts before its deletes; so does
		// the mirror.
		if mir != nil {
			for _, e := range o.Ins {
				mir.add(e)
			}
			for _, e := range del {
				mir.remove(e)
			}
		} else {
			for _, e := range o.Ins {
				inserted = append(inserted, graph.Edge{U: e[0], V: e[1]})
			}
		}
		o.Del = del
		return o
	}
	if mir != nil {
		w := batch(0, 0) // deletes only: it promotes the engine to the dynamic forest
		p.Warmup = &w
	}
	at := func(i, rate int) time.Duration {
		return (time.Duration(i) * time.Second / time.Duration(rate)).Truncate(tick)
	}
	count := func(rate int) int { return int(float64(rate) * dur.Seconds()) }
	var reads, writes []op
	for i := 0; i < count(m.Reads); i++ {
		reads = append(reads, op{Due: at(i, m.Reads), Kind: "read",
			U: graph.V(rng.Intn(n)), V: graph.V(rng.Intn(n))})
	}
	// Applies and decompositions share connection 1 in due order; an apply
	// due on the same tick as a decomposition goes first.
	na, nd := count(m.Applies), count(m.Decomps)
	for i, j := 0, 0; i < na || j < nd; {
		if i < na && (j >= nd || at(i, m.Applies) <= at(j, m.Decomps)) {
			writes = append(writes, batch(at(i, m.Applies), m.Inserts))
			i++
		} else {
			writes = append(writes, op{Due: at(j, m.Decomps), Conn: 1, Kind: "decomp",
				Path: m.DecompPaths[j%len(m.DecompPaths)]})
			j++
		}
	}
	p.Ops = append(reads, writes...)
	if mir != nil {
		p.final = mir.arcs
	} else {
		p.final = append(arcs(g), inserted...)
	}
	return p
}

// writePlan stores the op log as JSON.
func writePlan(path string, p *plan) error {
	buf, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// mirror is the generator's copy of the served arc set, with O(1) random
// picks and removals.
type mirror struct {
	arcs []graph.Edge
	pos  map[[2]graph.V]int
}

func newMirror(as []graph.Edge) *mirror {
	m := &mirror{arcs: as, pos: make(map[[2]graph.V]int, len(as))}
	for i, e := range as {
		m.pos[[2]graph.V{e.U, e.V}] = i
	}
	return m
}

func (m *mirror) add(e [2]graph.V) {
	if _, ok := m.pos[e]; ok || e[0] == e[1] {
		return
	}
	m.pos[e] = len(m.arcs)
	m.arcs = append(m.arcs, graph.Edge{U: e[0], V: e[1]})
}

func (m *mirror) remove(e [2]graph.V) {
	i, ok := m.pos[e]
	if !ok {
		return
	}
	last := m.arcs[len(m.arcs)-1]
	m.arcs[i] = last
	m.pos[[2]graph.V{last.U, last.V}] = i
	m.arcs = m.arcs[:len(m.arcs)-1]
	delete(m.pos, e)
}

// pick draws k distinct live arcs; every other one brings its reverse arc
// along when that is live too.
func (m *mirror) pick(rng *gen.RNG, k int) [][2]graph.V {
	seen := make(map[[2]graph.V]bool)
	var out [][2]graph.V
	for picks := 0; len(out) < k && picks < 4*k && len(m.arcs) > 0; picks++ {
		a := m.arcs[rng.Intn(len(m.arcs))]
		e := [2]graph.V{a.U, a.V}
		if seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
		r := [2]graph.V{a.V, a.U}
		if _, live := m.pos[r]; live && !seen[r] && picks%2 == 0 && len(out) < k {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// answers is everything one analytics round reports, reduced to counts and
// digests so rounds compare with ==.
type answers struct {
	CC, SCC, BgCC, Blocks, Largest int
	Connected                      bool
	NumAPs, NumBridges             int
	APs, Bridges                   uint64 // digests of the sorted sets
	// Unstable records that a repeated query in the round answered
	// differently from its first run.
	Unstable bool
}

// oracleAnswers computes the round answers with the serial DFS baselines.
func oracleAnswers(g *graph.Directed) answers {
	u := graph.Undirect(g)
	cc := serialdfs.CC(u)
	a := answers{CC: countLabels(cc), SCC: countLabels(serialdfs.SCC(g)),
		BgCC: countLabels(serialdfs.BgCC(u)), Largest: largestLabel(cc)}
	a.Connected = a.CC == 1
	bi := serialdfs.BiCC(u)
	a.Blocks = bi.NumBlocks
	a.NumAPs, a.APs = digestAPs(bi.IsAP)
	a.NumBridges, a.Bridges = digestBridges(u, serialdfs.Bridges(u))
	return a
}

func countLabels(label []uint32) int {
	seen := make(map[uint32]struct{})
	for _, l := range label {
		seen[l] = struct{}{}
	}
	return len(seen)
}

func largestLabel(label []uint32) int {
	size := make(map[uint32]int)
	best := 0
	for _, l := range label {
		size[l]++
		best = max(best, size[l])
	}
	return best
}

func digestAPs(isAP []bool) (int, uint64) {
	h := fnv.New64a()
	n := 0
	for v, ap := range isAP {
		if ap {
			n++
			fmt.Fprintf(h, "%d,", v)
		}
	}
	return n, h.Sum64()
}

func digestBridges(u *graph.Undirected, isBridge []bool) (int, uint64) {
	eps := u.EdgeEndpoints()
	var br [][2]graph.V
	for id, b := range isBridge {
		if b {
			e := eps[id]
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			br = append(br, e)
		}
	}
	slices.SortFunc(br, func(a, b [2]graph.V) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	h := fnv.New64a()
	for _, e := range br {
		fmt.Fprintf(h, "%d-%d,", e[0], e[1])
	}
	return len(br), h.Sum64()
}
