package bfs

import "aquila/internal/graph"

// Scratch is per-worker reusable state for the many small constrained BFSes
// that BiCC/BgCC run (Algorithm 1). Visited marks are epoch-stamped so a
// Scratch is reset in O(1) between runs; each concurrent worker owns one.
type Scratch struct {
	mark  []uint32
	epoch uint32
	queue []graph.V
}

// NewScratch allocates a Scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{mark: make([]uint32, n), queue: make([]graph.V, 0, 256)}
}

// Constraint configures one constrained BFS.
type Constraint struct {
	// Start is the BFS source (a tree child being checked).
	Start graph.V
	// BannedVertex is skipped entirely (the parent p in the AP check);
	// graph.NoVertex disables vertex banning.
	BannedVertex graph.V
	// BannedEdge is the dense edge id that must not be traversed (the tree
	// edge in the bridge check); -1 disables edge banning.
	BannedEdge int64
	// Bound: reaching any non-banned vertex w with Level[w] <= Bound proves
	// the check negative (no AP / no bridge) and stops the BFS early.
	Bound int32
	// Level is the BFS-tree level array the bound is measured against.
	Level []int32
	// Blocked, if non-nil, reports dense edge ids that must not be traversed
	// (edges already claimed by an inner block).
	Blocked func(int64) bool
	// Removed, if non-nil, flags vertices excluded by trimming.
	Removed []bool
}

// Run executes the constrained BFS. It returns reached=true as soon as a
// non-banned vertex at level <= Bound is found (the negative result: the
// parent is not an AP / the edge is not a bridge from this child's view).
// Otherwise it returns reached=false and the full visited set — the separated
// region — as a slice valid until the next Run on this Scratch.
func (s *Scratch) Run(g *graph.Undirected, c Constraint) (reached bool, visited []graph.V) {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear and restart epochs
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	e := s.epoch
	eids := g.EdgeIDs()
	s.mark[c.Start] = e
	s.queue = append(s.queue[:0], c.Start)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		lo, hi := g.SlotRange(u)
		for slot := lo; slot < hi; slot++ {
			v := g.SlotTarget(slot)
			if v == c.BannedVertex {
				continue
			}
			eid := eids[slot]
			if eid == c.BannedEdge {
				continue
			}
			if c.Removed != nil && c.Removed[v] {
				continue
			}
			if c.Blocked != nil && c.Blocked(eid) {
				continue
			}
			if c.Level[v] <= c.Bound {
				return true, nil
			}
			if s.mark[v] != e {
				s.mark[v] = e
				s.queue = append(s.queue, v)
			}
		}
	}
	return false, s.queue
}

// WasVisited reports whether v was visited by the most recent Run on this
// Scratch. It is valid until the next Run call.
func (s *Scratch) WasVisited(v graph.V) bool { return s.mark[v] == s.epoch }
