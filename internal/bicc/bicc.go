// Package bicc implements Aquila's biconnected-components computation (paper
// Algorithm 1 with the §4 workload reductions and the §5 adaptive schedule):
//
//  1. trim pendant trees (Fig. 7d) — every trimmed edge is its own block and
//     the surviving parents are articulation points;
//  2. build a BFS forest over the core with the data-parallel enhanced BFS;
//  3. compute single-parent-only flags (Fig. 5) to prune constrained checks;
//  4. walk the levels deepest-first; at each level run the surviving
//     constrained BFSes task-parallel, one task per parent vertex. A parent p
//     is an AP from child v's view iff v cannot reach any vertex at
//     level ≤ level[p] without p; the separated region's unmarked edges (plus
//     p's edges into it) form exactly one block (inner blocks were marked at
//     deeper levels — see DESIGN.md §4 for the disjointness argument);
//  5. handle the roots by grouping their children into connected groups: one
//     block per group, root is an AP iff ≥ 2 groups.
//
// Since PR 8 the package is an algorithm matrix: the pipeline above is the
// "constrained" cell, and a skeleton-based BCC kernel (skeleton.go) is the
// alternative cell. Solve picks a cell; Run keeps the paper pipeline.
package bicc

import (
	"context"
	"slices"

	"aquila/internal/bfs"
	"aquila/internal/bitmap"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/spo"
	"aquila/internal/trim"
)

// Options selects threads and the ablation/query-transformation toggles.
type Options struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// NoTrim disables the pendant trim.
	NoTrim bool
	// NoSPO disables single-parent-only pruning (every candidate check runs —
	// the Slota-style |V|-BFS workload Fig. 6 compares against).
	NoSPO bool
	// NoAdaptive runs the per-level checks sequentially instead of
	// task-parallel (the Fig. 10 adaptive-strategy ablation).
	NoAdaptive bool
	// Mode selects the parallel-BFS flavour for the tree construction.
	Mode bfs.Mode
	// APOnly skips block bookkeeping and stops checking a parent once it is
	// known to be an articulation point (the §3 partial AP query).
	APOnly bool
	// Ctx, if non-nil, cancels the run cooperatively at level and parent-group
	// boundaries. A cancelled Run returns a partial Result the caller must
	// discard after checking Ctx.Err().
	Ctx context.Context
}

// Stats quantifies the workload reduction (the Fig. 6 numerators).
type Stats struct {
	// Candidates is the number of constrained BFSes a trim-less, SPO-less
	// implementation would run (one per non-root core vertex plus one per
	// trimmed vertex).
	Candidates int
	// SkippedTrim, SkippedSPO and SkippedMarked count checks avoided by each
	// mechanism; Ran counts the constrained BFSes actually executed.
	SkippedTrim, SkippedSPO, SkippedMarked, Ran int
	// PositiveChecks counts the runs that proved an articulation point.
	PositiveChecks int
	// SkeletonEdges counts the edges of the derived skeleton graph and
	// SkeletonSerialTour reports that the deep-forest serial tour fallback
	// ran. Both belong to the skeleton cell and stay zero under constrained.
	SkeletonEdges      int
	SkeletonSerialTour bool
}

// Result is the block decomposition.
type Result struct {
	// IsAP flags articulation points.
	IsAP []bool
	// BlockOf maps dense edge ids to block labels in [0, NumBlocks); it is
	// nil when APOnly was set.
	BlockOf []int64
	// NumBlocks is the number of biconnected components.
	NumBlocks int
	// Policy is the matrix cell that produced this result.
	Policy Policy
	Stats  Stats
}

// Run computes the biconnected components (or just the APs) of g with the
// classic constrained-BFS pipeline. It is exactly Solve with
// PolicyConstrained.
func Run(g *graph.Undirected, opt Options) *Result {
	return Solve(g, PolicyConstrained, opt)
}

// Solve computes the biconnected components (or just the APs) of g with the
// selected matrix cell. Every cell emits the same canonical AP set and block
// partition (block ids may differ across cells; the partition does not). An
// invalid policy degrades to the constrained cell.
func Solve(g *graph.Undirected, pol Policy, opt Options) *Result {
	if pol.Valid() != nil {
		pol = PolicyConstrained
	}
	n := g.NumVertices()
	res := &Result{IsAP: make([]bool, n), Policy: pol}
	if !opt.APOnly {
		res.BlockOf = make([]int64, g.NumEdges())
		for i := range res.BlockOf {
			res.BlockOf[i] = -1
		}
	}
	if n == 0 {
		return res
	}
	if pol.Kernel == KernelSkeleton {
		runSkeleton(g, res, opt)
	} else {
		runConstrained(g, res, opt)
	}
	return res
}

// trimPendants runs the pendant-tree trim shared by every cell: each trimmed
// edge becomes its own (bridge) block with ids 0..k-1, surviving parents are
// APs, and the trimmed vertices are removed from the core. Returns the
// removed mask (nil when trimming is off) and the bridge edge ids for the
// cell's own bookkeeping.
func trimPendants(g *graph.Undirected, res *Result, opt Options) (removed []bool, bridges []int64) {
	if opt.NoTrim {
		return nil, nil
	}
	pend := trim.Pendants(g)
	copy(res.IsAP, pend.IsAP)
	if !opt.APOnly {
		for i, e := range pend.BridgeEdges {
			res.BlockOf[e] = int64(i)
		}
	}
	res.NumBlocks = len(pend.BridgeEdges)
	res.Stats.SkippedTrim = pend.TrimmedCount
	return pend.Removed, pend.BridgeEdges
}

// runConstrained is the paper pipeline (steps 1-5 of the package comment),
// byte-identical to the pre-matrix Run.
func runConstrained(g *graph.Undirected, res *Result, opt Options) {
	n := g.NumVertices()
	p := parallel.Threads(opt.Threads)
	st := &state{g: g, eid: g.EdgeIDs(), opt: opt, p: p, res: res,
		marked: bitmap.NewAtomic(int(g.NumEdges()))}

	removed, bridges := trimPendants(g, res, opt)
	for _, e := range bridges {
		st.marked.Set(uint32(e))
	}
	st.nextBlock = int64(res.NumBlocks)
	st.removed = removed

	// BFS forest over the core.
	tree := bfs.NewTree(n)
	tree.RunForest(g, coreMaxDegree(g, removed), removed, bfs.Options{Threads: p, Ctx: opt.Ctx})
	st.tree = tree
	st.done = parallel.Done(opt.Ctx)
	if parallel.Stopped(st.done) {
		return // partial: caller checks opt.Ctx.Err() and discards
	}

	if !opt.NoSPO {
		st.spoFlags = spo.Compute(g, tree.Level, tree.Parent, removed, p)
	}

	// Candidate census: every vertex that is not a component root would need
	// a check in the naive scheme; trimmed vertices count as avoided checks.
	for v := 0; v < n; v++ {
		if removed != nil && removed[v] {
			res.Stats.Candidates++
		} else if tree.Level[v] >= 1 {
			res.Stats.Candidates++
		}
	}

	st.buildLevelIndex()
	for lvl := tree.MaxLevel; lvl >= 2; lvl-- {
		if parallel.Stopped(st.done) {
			return
		}
		st.processLevel(lvl)
	}
	st.processRoots()

	res.NumBlocks = int(st.nextBlock)
}

// state carries the shared pieces of one Run.
type state struct {
	g         *graph.Undirected
	eid       []int64 // g.EdgeIDs(), hoisted out of the per-slot loops
	opt       Options
	p         int
	res       *Result
	tree      *bfs.Tree
	removed   []bool
	spoFlags  *spo.Flags
	marked    *bitmap.Atomic
	nextBlock int64
	done      <-chan struct{}

	// byLevel[l] lists the vertices at level l, sorted by parent so the
	// children of one parent are contiguous.
	byLevel [][]graph.V
	// scratches holds one constrained-BFS scratch per worker.
	scratches []*bfs.Scratch
}

func (s *state) buildLevelIndex() {
	s.byLevel = make([][]graph.V, s.tree.MaxLevel+1)
	for v := 0; v < s.g.NumVertices(); v++ {
		if s.removed != nil && s.removed[v] {
			continue
		}
		if l := s.tree.Level[v]; l >= 1 {
			s.byLevel[l] = append(s.byLevel[l], graph.V(v))
		}
	}
	for _, vs := range s.byLevel {
		// Each level list is already ascending by vertex id (built by one
		// ascending scan), so only the grouping by parent needs enforcing —
		// and ties break by id for free with a stable sort.
		slices.SortStableFunc(vs, func(a, b graph.V) int {
			return int(s.tree.Parent[a]) - int(s.tree.Parent[b])
		})
	}
	s.scratches = make([]*bfs.Scratch, s.p)
	for i := range s.scratches {
		s.scratches[i] = bfs.NewScratch(s.g.NumVertices())
	}
}

// processLevel runs the constrained checks for the children at level lvl,
// task-parallel over parent groups (regions of different parents at one level
// are provably disjoint; same-parent children are handled sequentially inside
// one task).
func (s *state) processLevel(lvl int32) {
	verts := s.byLevel[lvl]
	if len(verts) == 0 {
		return
	}
	// Parent-group boundaries over the parent-sorted slice.
	var groups [][2]int
	start := 0
	for i := 1; i <= len(verts); i++ {
		if i == len(verts) || s.tree.Parent[verts[i]] != s.tree.Parent[verts[start]] {
			groups = append(groups, [2]int{start, i})
			start = i
		}
	}
	threads := s.p
	if s.opt.NoAdaptive {
		threads = 1
	}
	var skippedSPO, skippedMarked, ran, positive int64
	parallel.ForChunksDynamic(0, len(groups), threads, 1, func(lo, hi, w int) {
		scratch := s.scratches[w]
		for gi := lo; gi < hi; gi++ {
			if parallel.Stopped(s.done) {
				return
			}
			grp := groups[gi]
			parent := s.tree.Parent[verts[grp[0]]]
			for i := grp[0]; i < grp[1]; i++ {
				v := verts[i]
				if s.opt.APOnly && s.res.IsAP[parent] {
					break // §3: an identified AP needs no further checks
				}
				if s.spoFlags != nil && s.spoFlags.SkipAP[v] {
					parallel.AddI64(&skippedSPO, 1)
					continue
				}
				eid := s.g.EdgeIDOf(parent, v)
				if s.marked.Get(uint32(eid)) {
					parallel.AddI64(&skippedMarked, 1)
					continue // v's region was claimed by an earlier sibling
				}
				parallel.AddI64(&ran, 1)
				reached, region := scratch.Run(s.g, bfs.Constraint{
					Start:        v,
					BannedVertex: parent,
					BannedEdge:   -1,
					Bound:        s.tree.Level[parent],
					Level:        s.tree.Level,
					Blocked:      s.markedFn(),
					Removed:      s.removed,
				})
				if reached {
					continue
				}
				parallel.AddI64(&positive, 1)
				s.res.IsAP[parent] = true
				s.claimBlock(parent, region, scratch)
			}
		}
	})
	s.res.Stats.SkippedSPO += int(skippedSPO)
	s.res.Stats.SkippedMarked += int(skippedMarked)
	s.res.Stats.Ran += int(ran)
	s.res.Stats.PositiveChecks += int(positive)
}

// processRoots groups each root's children into connected groups: one block
// per group; the root is an AP iff at least two groups exist.
func (s *state) processRoots() {
	n := s.g.NumVertices()
	var roots []graph.V
	for v := 0; v < n; v++ {
		if s.tree.Level[v] == 0 && s.g.Degree(graph.V(v)) > 0 {
			if s.removed == nil || !s.removed[v] {
				roots = append(roots, graph.V(v))
			}
		}
	}
	threads := s.p
	if s.opt.NoAdaptive {
		threads = 1
	}
	var ran int64
	parallel.ForChunksDynamic(0, len(roots), threads, 1, func(lo, hi, w int) {
		scratch := s.scratches[w]
		for i := lo; i < hi; i++ {
			if parallel.Stopped(s.done) {
				return
			}
			root := roots[i]
			groups := 0
			rl, rh := s.g.SlotRange(root)
			for slot := rl; slot < rh; slot++ {
				c := s.g.SlotTarget(slot)
				if s.removed != nil && s.removed[c] {
					continue
				}
				if s.tree.Parent[c] != root || s.tree.Level[c] != 1 {
					continue // a non-tree edge inside some group
				}
				eid := s.eid[slot]
				if s.marked.Get(uint32(eid)) {
					continue // group already claimed via an earlier child
				}
				if s.opt.APOnly && groups >= 2 {
					break // root already proven an AP; no block bookkeeping
				}
				parallel.AddI64(&ran, 1)
				// Full sweep (no early exit: Bound -2 is below every level)
				// of c's component in G - root over unmarked edges.
				_, region := scratch.Run(s.g, bfs.Constraint{
					Start:        c,
					BannedVertex: root,
					BannedEdge:   -1,
					Bound:        -2,
					Level:        s.tree.Level,
					Blocked:      s.markedFn(),
					Removed:      s.removed,
				})
				groups++
				s.claimBlock(root, region, scratch)
			}
			if groups >= 2 {
				s.res.IsAP[root] = true
			}
		}
	})
	s.res.Stats.Ran += int(ran)
}

// claimBlock assigns a fresh block id to every unmarked edge inside the
// region plus the cut vertex's edges into it. The scratch still holds the
// region's visited marks from the constrained BFS that produced it.
func (s *state) claimBlock(cut graph.V, region []graph.V, scratch *bfs.Scratch) {
	id := parallel.AddI64(&s.nextBlock, 1) - 1
	for _, u := range region {
		lo, hi := s.g.SlotRange(u)
		for slot := lo; slot < hi; slot++ {
			w := s.g.SlotTarget(slot)
			eid := s.eid[slot]
			if s.marked.Get(uint32(eid)) {
				continue
			}
			if w == cut || scratch.WasVisited(w) {
				s.marked.Set(uint32(eid))
				if !s.opt.APOnly {
					s.res.BlockOf[eid] = id
				}
			}
		}
	}
}

func (s *state) markedFn() func(int64) bool {
	return func(e int64) bool { return s.marked.Get(uint32(e)) }
}

// coreMaxDegree picks the highest-degree non-removed vertex.
func coreMaxDegree(g *graph.Undirected, removed []bool) graph.V {
	best := graph.V(0)
	bestDeg := -1
	for v := 0; v < g.NumVertices(); v++ {
		if removed != nil && removed[v] {
			continue
		}
		if d := g.Degree(graph.V(v)); d > bestDeg {
			bestDeg = d
			best = graph.V(v)
		}
	}
	return best
}
