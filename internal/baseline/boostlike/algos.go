package boostlike

import "aquila/internal/graph"

// ccVisitor labels every discovered vertex with the current root.
type ccVisitor struct {
	NullVisitor
	label   []uint32
	current uint32
}

func (c *ccVisitor) StartVertex(v graph.V)    { c.current = uint32(v) }
func (c *ccVisitor) DiscoverVertex(v graph.V) { c.label[v] = c.current }

// CC computes connected components through the visitor framework
// (boost::connected_components). Labels are the smallest vertex id per
// component (roots are taken in ascending order).
func CC(g *graph.Undirected) []uint32 {
	vis := &ccVisitor{label: make([]uint32, g.NumVertices())}
	UndirectedDFS(g, vis)
	return vis.label
}

// sccVisitor implements Tarjan's algorithm on top of the DFS event stream
// (boost::strong_components).
type sccVisitor struct {
	NullVisitor
	g       *graph.Directed
	disc    []uint32
	low     []uint32
	onStack []bool
	label   []uint32
	timer   uint32
	active  []graph.V // current DFS path
	stack   []graph.V // Tarjan's SCC stack
}

func (s *sccVisitor) DiscoverVertex(v graph.V) {
	s.disc[v] = s.timer
	s.low[v] = s.timer
	s.timer++
	s.onStack[v] = true
	s.stack = append(s.stack, v)
	s.active = append(s.active, v)
}

func (s *sccVisitor) BackEdge(u, v graph.V, _ int64) {
	if s.disc[v] < s.low[u] {
		s.low[u] = s.disc[v]
	}
}

func (s *sccVisitor) ForwardOrCrossEdge(u, v graph.V, _ int64) {
	if s.onStack[v] && s.disc[v] < s.low[u] {
		s.low[u] = s.disc[v]
	}
}

func (s *sccVisitor) FinishVertex(v graph.V) {
	s.active = s.active[:len(s.active)-1]
	if len(s.active) > 0 {
		p := s.active[len(s.active)-1]
		if s.low[v] < s.low[p] {
			s.low[p] = s.low[v]
		}
	}
	if s.low[v] != s.disc[v] {
		return
	}
	// v roots an SCC: pop and canonicalize to the minimum member id.
	start := len(s.stack)
	for {
		start--
		if s.stack[start] == v {
			break
		}
	}
	members := s.stack[start:]
	minID := uint32(v)
	for _, w := range members {
		if uint32(w) < minID {
			minID = uint32(w)
		}
	}
	for _, w := range members {
		s.label[w] = minID
		s.onStack[w] = false
	}
	s.stack = s.stack[:start]
}

// SCC computes strongly connected components through the visitor framework.
func SCC(g *graph.Directed) []uint32 {
	n := g.NumVertices()
	vis := &sccVisitor{
		g:       g,
		disc:    make([]uint32, n),
		low:     make([]uint32, n),
		onStack: make([]bool, n),
		label:   make([]uint32, n),
	}
	DirectedDFS(g, vis)
	return vis.label
}

// biccVisitor implements Hopcroft–Tarjan on the event stream
// (boost::biconnected_components).
type biccVisitor struct {
	NullVisitor
	disc       []int32
	low        []int32
	parentEdge []int64
	isAP       []bool
	blockOf    []int64
	bridge     []bool
	numBlocks  int
	timer      int32
	active     []graph.V
	edgeStack  []int64
	rootKids   int
}

func (b *biccVisitor) StartVertex(graph.V) { b.rootKids = 0 }

func (b *biccVisitor) DiscoverVertex(v graph.V) {
	b.disc[v] = b.timer
	b.low[v] = b.timer
	b.timer++
	b.active = append(b.active, v)
}

func (b *biccVisitor) TreeEdge(_, v graph.V, eid int64) {
	b.parentEdge[v] = eid
	b.edgeStack = append(b.edgeStack, eid)
}

func (b *biccVisitor) BackEdge(u, v graph.V, eid int64) {
	b.edgeStack = append(b.edgeStack, eid)
	if b.disc[v] < b.low[u] {
		b.low[u] = b.disc[v]
	}
}

func (b *biccVisitor) FinishVertex(v graph.V) {
	b.active = b.active[:len(b.active)-1]
	if len(b.active) == 0 {
		if b.rootKids >= 2 {
			b.isAP[v] = true
		}
		return
	}
	p := b.active[len(b.active)-1]
	if b.low[v] < b.low[p] {
		b.low[p] = b.low[v]
	}
	if b.low[v] >= b.disc[p] {
		blk := int64(b.numBlocks)
		b.numBlocks++
		for {
			e := b.edgeStack[len(b.edgeStack)-1]
			b.edgeStack = b.edgeStack[:len(b.edgeStack)-1]
			b.blockOf[e] = blk
			if e == b.parentEdge[v] {
				break
			}
		}
		if len(b.active) == 1 {
			b.rootKids++
		} else {
			b.isAP[p] = true
		}
	}
	if b.low[v] > b.disc[p] {
		b.bridge[b.parentEdge[v]] = true
	}
}

// BiCCResult mirrors the serial ground-truth result shape.
type BiCCResult struct {
	IsAP      []bool
	BlockOf   []int64
	Bridge    []bool
	NumBlocks int
}

// BiCC computes biconnected components, articulation points and bridges
// through the visitor framework.
func BiCC(g *graph.Undirected) *BiCCResult {
	n := g.NumVertices()
	vis := &biccVisitor{
		disc:       make([]int32, n),
		low:        make([]int32, n),
		parentEdge: make([]int64, n),
		isAP:       make([]bool, n),
		blockOf:    make([]int64, g.NumEdges()),
		bridge:     make([]bool, g.NumEdges()),
	}
	for i := range vis.blockOf {
		vis.blockOf[i] = -1
	}
	for i := range vis.parentEdge {
		vis.parentEdge[i] = -1
	}
	UndirectedDFS(g, vis)
	return &BiCCResult{
		IsAP:      vis.isAP,
		BlockOf:   vis.blockOf,
		Bridge:    vis.bridge,
		NumBlocks: vis.numBlocks,
	}
}

// Bridges computes just the bridge flags through the visitor framework.
func Bridges(g *graph.Undirected) []bool {
	return BiCC(g).Bridge
}

// BgCC labels bridgeless components: Boost has no direct algorithm for this;
// the idiomatic BGL recipe is biconnected_components for the bridges followed
// by connected_components on a filtered_graph, which is what this reproduces.
func BgCC(g *graph.Undirected) []uint32 {
	bridge := Bridges(g)
	eids := g.EdgeIDs()
	n := g.NumVertices()
	label := make([]uint32, n)
	for i := range label {
		label[i] = graph.NoVertex
	}
	stack := make([]graph.V, 0, 1024)
	for r := 0; r < n; r++ {
		if label[r] != graph.NoVertex {
			continue
		}
		label[r] = uint32(r)
		stack = append(stack[:0], graph.V(r))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.SlotRange(u)
			for s := lo; s < hi; s++ {
				if bridge[eids[s]] {
					continue
				}
				w := g.SlotTarget(s)
				if label[w] == graph.NoVertex {
					label[w] = uint32(r)
					stack = append(stack, w)
				}
			}
		}
	}
	return label
}
