package bicc

import (
	"aquila/internal/bfs"
	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/stats"
)

// skeletonDeepLevels is the forest depth beyond which the level-synchronous
// Euler-tour sweeps degrade to one tiny parallel-for per level; past it the
// tour and the low/high aggregation run as serial O(n) array walks instead.
const skeletonDeepLevels = 64

// runSkeleton is the skeleton-based BCC cell (Dong et al., PPoPP '23),
// adapted to an arbitrary BFS spanning forest, so cross edges — impossible
// under DFS — are handled explicitly:
//
//  1. pendant trim (shared with the constrained cell);
//  2. BFS spanning forest over the core, same root heuristic as constrained;
//  3. Euler-tour preorder timestamps: subtree(v) = [first[v], last[v]) — a
//     level-prefix computation on shallow forests, a serial stack walk on
//     deep ones (where per-level parallel-fors would serialize anyway);
//  4. per-vertex low/high over the tour: the min/max first[] touched from
//     inside v's subtree by one non-tree edge, aggregated up the forest;
//  5. the skeleton graph on V, where each non-root v stands for its parent
//     tree edge e(v) = {Parent[v], v}: a cross non-tree edge {u,w} (neither
//     endpoint an ancestor of the other) connects e(u)~e(w); a tree edge
//     e(w) with non-root parent p connects e(w)~e(p) iff w's subtree escapes
//     p's subtree — low[w] < first[p] || high[w] >= last[p] (the "fence"
//     test). Ancestor-related non-tree edges add no skeleton edge: the chain
//     of escaping tree edges already links the cycle they close.
//  6. one cc.Solve on the skeleton: each component is exactly one block. An
//     edge belongs to the block of its deeper endpoint (larger first); a
//     non-root v is an AP iff some child's component differs from v's own,
//     and a root is an AP iff its children span ≥ 2 components.
func runSkeleton(g *graph.Undirected, res *Result, opt Options) {
	n := g.NumVertices()
	p := parallel.Threads(opt.Threads)
	done := parallel.Done(opt.Ctx)

	removed, _ := trimPendants(g, res, opt)

	tree := bfs.NewTree(n)
	tree.RunForest(g, coreMaxDegree(g, removed), removed, bfs.Options{Threads: p, Ctx: opt.Ctx})
	if parallel.Stopped(done) {
		return // partial: caller checks opt.Ctx.Err() and discards
	}

	s := &skeletonState{g: g, opt: opt, p: p, res: res,
		removed: removed, tree: tree, done: done}
	s.buildChildren()
	if !s.tour() || !s.lowHigh() {
		return
	}
	labels, ok := s.connectSkeleton()
	if !ok {
		return
	}
	s.emit(labels)
}

// skeletonState carries the shared pieces of one skeleton run. n is bounded
// by the 32-bit vertex ids, so int32 timestamps cannot overflow.
type skeletonState struct {
	g       *graph.Undirected
	opt     Options
	p       int
	res     *Result
	removed []bool
	tree    *bfs.Tree
	done    <-chan struct{}

	// childOff/childAdj is a CSR of forest children, ascending child id.
	childOff []int32
	childAdj []graph.V
	// first/last are the preorder Euler intervals; low/high the subtree
	// reach bounds of step 4.
	first, last []int32
	low, high   []int32
	// order is the preorder sequence (serial tour path only); byLevel the
	// per-level vertex lists (level-prefix path only).
	order   []graph.V
	byLevel [][]graph.V
}

func (s *skeletonState) core(v graph.V) bool { return s.removed == nil || !s.removed[v] }

// isRoot relies on RunForest setting Parent[root] = root.
func (s *skeletonState) isRoot(v graph.V) bool { return s.tree.Parent[v] == v }

func (s *skeletonState) children(v graph.V) []graph.V {
	return s.childAdj[s.childOff[v]:s.childOff[v+1]]
}

// buildChildren counting-sorts the core vertices by parent. Two ascending
// scans, so each child list comes out ascending by child id — the order the
// tour walks them, making both tour paths deterministic.
func (s *skeletonState) buildChildren() {
	n := s.g.NumVertices()
	s.childOff = make([]int32, n+1)
	for vi := 0; vi < n; vi++ {
		if v := graph.V(vi); s.core(v) && !s.isRoot(v) {
			s.childOff[s.tree.Parent[v]+1]++
		}
	}
	for vi := 0; vi < n; vi++ {
		s.childOff[vi+1] += s.childOff[vi]
	}
	s.childAdj = make([]graph.V, s.childOff[n])
	cursor := make([]int32, n)
	copy(cursor, s.childOff[:n])
	for vi := 0; vi < n; vi++ {
		if v := graph.V(vi); s.core(v) && !s.isRoot(v) {
			p := s.tree.Parent[v]
			s.childAdj[cursor[p]] = v
			cursor[p]++
		}
	}
}

// tour fills first/last. Returns false when cancelled.
func (s *skeletonState) tour() bool {
	n := s.g.NumVertices()
	s.first = make([]int32, n)
	s.last = make([]int32, n)
	if int(s.tree.MaxLevel) > skeletonDeepLevels {
		s.res.Stats.SkeletonSerialTour = true
		return s.tourSerial()
	}
	return s.tourByLevel()
}

// tourSerial is the deep-forest fallback: one explicit-stack preorder walk,
// recording the visit sequence for the aggregation pass.
func (s *skeletonState) tourSerial() bool {
	n := s.g.NumVertices()
	s.order = make([]graph.V, 0, n)
	type frame struct {
		v  graph.V
		ci int32 // next child slot in childAdj
	}
	var stack []frame
	timer := int32(0)
	steps := 0
	for ri := 0; ri < n; ri++ {
		root := graph.V(ri)
		if !s.core(root) || !s.isRoot(root) {
			continue
		}
		s.first[root] = timer
		timer++
		s.order = append(s.order, root)
		stack = append(stack[:0], frame{v: root, ci: s.childOff[root]})
		for len(stack) > 0 {
			if steps++; steps&8191 == 0 && parallel.Stopped(s.done) {
				return false
			}
			top := &stack[len(stack)-1]
			if top.ci < s.childOff[top.v+1] {
				c := s.childAdj[top.ci]
				top.ci++
				s.first[c] = timer
				timer++
				s.order = append(s.order, c)
				stack = append(stack, frame{v: c, ci: s.childOff[c]})
			} else {
				s.last[top.v] = timer
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

// tourByLevel is the shallow-forest path: subtree sizes pulled bottom-up one
// level at a time, then prefix offsets pushed top-down — each parent hands
// every child the start of its preorder interval.
func (s *skeletonState) tourByLevel() bool {
	n := s.g.NumVertices()
	s.byLevel = make([][]graph.V, int(s.tree.MaxLevel)+1)
	for vi := 0; vi < n; vi++ {
		if v := graph.V(vi); s.core(v) {
			s.byLevel[s.tree.Level[v]] = append(s.byLevel[s.tree.Level[v]], v)
		}
	}
	size := make([]int32, n)
	maxLvl := int(s.tree.MaxLevel)
	for lvl := maxLvl; lvl >= 0; lvl-- {
		if parallel.Stopped(s.done) {
			return false
		}
		verts := s.byLevel[lvl]
		parallel.For(0, len(verts), s.p, func(i int) {
			v := verts[i]
			sz := int32(1)
			for _, c := range s.children(v) {
				sz += size[c]
			}
			size[v] = sz
		})
	}
	// Roots take consecutive intervals in ascending id order, matching the
	// serial walk.
	base := int32(0)
	for _, r := range s.byLevel[0] {
		s.first[r] = base
		base += size[r]
	}
	for lvl := 0; lvl < maxLvl; lvl++ {
		if parallel.Stopped(s.done) {
			return false
		}
		verts := s.byLevel[lvl]
		parallel.For(0, len(verts), s.p, func(i int) {
			v := verts[i]
			off := s.first[v] + 1
			for _, c := range s.children(v) {
				s.first[c] = off
				off += size[c]
			}
		})
	}
	parallel.ForBlocks(0, n, s.p, func(lo, hi, _ int) {
		for vi := lo; vi < hi; vi++ {
			if v := graph.V(vi); s.core(v) {
				s.last[v] = s.first[v] + size[v]
			}
		}
	})
	return true
}

// treeEdge reports whether {v,w} is the tree edge between v and w. The CSR
// stores a simple graph, so parenthood identifies the edge unambiguously.
func (s *skeletonState) treeEdge(v, w graph.V) bool {
	return s.tree.Parent[w] == v || s.tree.Parent[v] == w
}

// lowHigh fills low/high: the base case scans every non-tree edge once in
// parallel; aggregation then pulls children into parents level-by-level, or
// pushes along the reverse preorder on the deep path (every descendant of v
// follows v in preorder, so v's subtree is finished before v pushes).
func (s *skeletonState) lowHigh() bool {
	n := s.g.NumVertices()
	s.low = make([]int32, n)
	s.high = make([]int32, n)
	parallel.ForBlocks(0, n, s.p, func(blo, bhi, _ int) {
		for vi := blo; vi < bhi; vi++ {
			v := graph.V(vi)
			if !s.core(v) {
				continue
			}
			lo, hi := s.first[v], s.first[v]
			sl, sh := s.g.SlotRange(v)
			for slot := sl; slot < sh; slot++ {
				w := s.g.SlotTarget(slot)
				if !s.core(w) || s.treeEdge(v, w) {
					continue
				}
				f := s.first[w]
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
			}
			s.low[v], s.high[v] = lo, hi
		}
	})
	if parallel.Stopped(s.done) {
		return false
	}
	if s.order != nil {
		for i := len(s.order) - 1; i >= 0; i-- {
			v := s.order[i]
			p := s.tree.Parent[v]
			if p == v {
				continue
			}
			if s.low[v] < s.low[p] {
				s.low[p] = s.low[v]
			}
			if s.high[v] > s.high[p] {
				s.high[p] = s.high[v]
			}
		}
	} else {
		for lvl := int(s.tree.MaxLevel) - 1; lvl >= 0; lvl-- {
			if parallel.Stopped(s.done) {
				return false
			}
			verts := s.byLevel[lvl]
			parallel.For(0, len(verts), s.p, func(i int) {
				v := verts[i]
				lo, hi := s.low[v], s.high[v]
				for _, c := range s.children(v) {
					if s.low[c] < lo {
						lo = s.low[c]
					}
					if s.high[c] > hi {
						hi = s.high[c]
					}
				}
				s.low[v], s.high[v] = lo, hi
			})
		}
	}
	return true
}

// connectSkeleton builds the step-5 skeleton graph and labels it with one
// cc.Solve (cell picked by the CC chooser on the skeleton's own shape). Each
// edge is emitted by its deeper endpoint — first[] values are distinct over
// the core, so every edge has exactly one owner and the scan stays
// write-free. Roots never own an edge: within a tree the root's first is
// minimal, and edges never span trees.
func (s *skeletonState) connectSkeleton() (*cc.Result, bool) {
	n := s.g.NumVertices()
	bufs := make([][]graph.Edge, s.p)
	parallel.ForBlocks(0, n, s.p, func(blo, bhi, w int) {
		buf := bufs[w]
		for vi := blo; vi < bhi; vi++ {
			v := graph.V(vi)
			if !s.core(v) {
				continue
			}
			fv := s.first[v]
			sl, sh := s.g.SlotRange(v)
			for slot := sl; slot < sh; slot++ {
				u := s.g.SlotTarget(slot)
				if !s.core(u) || s.treeEdge(v, u) {
					continue
				}
				if s.first[u] >= fv {
					continue // the deeper endpoint owns the edge
				}
				if fv < s.last[u] {
					continue // u is an ancestor: back edges add nothing
				}
				buf = append(buf, graph.Edge{U: v, V: u}) // cross: e(v)~e(u)
			}
			// Fence test for the tree-edge pair (Parent[v], v).
			p := s.tree.Parent[v]
			if p != v && !s.isRoot(p) &&
				(s.low[v] < s.first[p] || s.high[v] >= s.last[p]) {
				buf = append(buf, graph.Edge{U: v, V: p})
			}
		}
		bufs[w] = buf
	})
	if parallel.Stopped(s.done) {
		return nil, false
	}
	var edges []graph.Edge
	for _, b := range bufs {
		edges = append(edges, b...)
	}
	s.res.Stats.SkeletonEdges = len(edges)
	skel := graph.BuildUndirectedThreads(n, edges, s.opt.Threads)
	pol := cc.ChoosePolicy(stats.CheapUndirected(skel))
	labels := cc.Solve(skel, pol, cc.Options{
		Threads: s.opt.Threads, Mode: s.opt.Mode, Ctx: s.opt.Ctx})
	if parallel.Stopped(s.done) {
		return nil, false
	}
	return labels, true
}

// emit converts skeleton component labels into the canonical result: dense
// block ids by first occurrence over ascending vertex ids (deterministic at
// any thread count, unlike the constrained cell's claim order), per-edge
// block labels written by each edge's unique owner, and the AP rules of
// step 6 OR-ed over the trim's pendant-parent APs.
func (s *skeletonState) emit(labels *cc.Result) {
	n := s.g.NumVertices()
	lab := labels.Label
	if !s.opt.APOnly {
		blockID := make([]int64, n)
		for i := range blockID {
			blockID[i] = -1
		}
		next := int64(s.res.NumBlocks)
		for vi := 0; vi < n; vi++ {
			v := graph.V(vi)
			if !s.core(v) || s.isRoot(v) {
				continue
			}
			if l := lab[v]; blockID[l] < 0 {
				blockID[l] = next
				next++
			}
		}
		s.res.NumBlocks = int(next)
		eid := s.g.EdgeIDs()
		parallel.ForBlocks(0, n, s.p, func(blo, bhi, _ int) {
			for vi := blo; vi < bhi; vi++ {
				v := graph.V(vi)
				if !s.core(v) {
					continue
				}
				fv := s.first[v]
				id := int64(-1)
				sl, sh := s.g.SlotRange(v)
				for slot := sl; slot < sh; slot++ {
					u := s.g.SlotTarget(slot)
					if !s.core(u) || s.first[u] >= fv {
						continue // not the owner (or a trim-labeled bridge)
					}
					if id < 0 {
						id = blockID[lab[v]]
					}
					s.res.BlockOf[eid[slot]] = id
				}
			}
		})
	}
	parallel.ForBlocks(0, n, s.p, func(blo, bhi, _ int) {
		for vi := blo; vi < bhi; vi++ {
			v := graph.V(vi)
			if !s.core(v) {
				continue
			}
			cs := s.children(v)
			if s.isRoot(v) {
				if len(cs) < 2 {
					continue
				}
				l0 := lab[cs[0]]
				for _, c := range cs[1:] {
					if lab[c] != l0 {
						s.res.IsAP[v] = true
						break
					}
				}
			} else {
				lv := lab[v]
				for _, c := range cs {
					if lab[c] != lv {
						s.res.IsAP[v] = true
						break
					}
				}
			}
		}
	})
}
