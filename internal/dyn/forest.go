package dyn

import (
	"fmt"
	"math/bits"
	"slices"

	"aquila/internal/graph"
)

// Forest is a fully dynamic connectivity structure over a fixed vertex set
// [0, n): a spanning forest maintained under edge insertions (Link) and
// deletions (Cut) with poly-logarithmic amortized cost, in the HDT scheme.
//
// Every edge carries a level in [0, maxLevel]. Level i's Euler-tour forest
// contains exactly the spanning-forest edges of level >= i, so level 0 is the
// spanning forest of the whole graph and answers Connected. Cutting a tree
// edge at level l removes it from forests 0..l and then searches levels
// l..0 for a replacement: at each level the smaller side's tree edges are
// promoted one level (keeping every level-i tree small enough that the
// promotion budget amortizes), then the level-i non-tree edges incident to
// the smaller side are scanned — an edge leading out of it reconnects the
// two halves and becomes a tree edge; an edge internal to it is promoted.
// Only when every level is exhausted has a component genuinely split.
//
// A Forest is not safe for concurrent mutation; see the package comment.
type Forest struct {
	n        int
	maxLevel int
	rnd      rng
	levels   []*ett // levels[i]: Euler-tour forest of tree edges with level >= i; lazy
	// index maps a live edge's normalized endpoints to its record in edges;
	// freed records are reused from freeE.
	index table
	edges []edge
	freeE []int32
	comps int
	numE  int

	// scratch reused across Cut and Labels calls.
	tour    []int32
	verts   []graph.V
	promote []int32
}

// edge is one live edge's record. Its non-tree half-edges (2*id at u, 2*id+1
// at v) thread the per-level non-tree lists through next and prev, stored
// plus one so that 0 ends a list.
type edge struct {
	u, v       graph.V // u < v
	next, prev [2]int32
	level      uint8
	tree       bool
}

// NewForest returns an empty forest over vertices [0, n).
func NewForest(n int) *Forest { return NewForestSized(n, 0) }

// NewForestSized returns an empty forest over vertices [0, n) with room for
// m edges: the edge table, the endpoint index and level 0's tour slab are
// sized up front, so linking m edges never grows them.
func NewForestSized(n, m int) *Forest {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("dyn: vertex count %d out of range [0,%d]", n, MaxVertices))
	}
	if m < 0 || m > MaxEdges {
		panic(fmt.Sprintf("dyn: edge count %d out of range [0,%d]", m, MaxEdges))
	}
	ml := bits.Len(uint(n)) // floor(log2 n)+1 levels is the HDT bound
	f := &Forest{
		n:        n,
		maxLevel: ml,
		rnd:      rng{s: 0x9e3779b97f4a7c15 ^ uint64(n)},
		levels:   make([]*ett, ml+1),
		index:    newTable(m),
		edges:    make([]edge, 0, m),
		comps:    n,
	}
	f.levels[0] = newETT(n, min(m, max(n-1, 0)), &f.rnd)
	return f
}

// NumVertices returns the size of the vertex universe.
func (f *Forest) NumVertices() int { return f.n }

// NumEdges returns the number of live (undirected, deduplicated) edges.
func (f *Forest) NumEdges() int { return f.numE }

// ComponentCount returns the number of connected components, counting
// isolated vertices.
func (f *Forest) ComponentCount() int { return f.comps }

func key(u, v graph.V) [2]graph.V {
	if u > v {
		u, v = v, u
	}
	return [2]graph.V{u, v}
}

// key64 packs the normalized endpoints of {u,v}, u != v, into a non-zero
// table key.
func key64(u, v graph.V) uint64 {
	k := key(u, v)
	return uint64(k[0])<<32 | uint64(k[1])
}

// HasEdge reports whether the edge {u,v} is live. Self-loops are never
// stored.
func (f *Forest) HasEdge(u, v graph.V) bool {
	if u == v {
		return false
	}
	_, ok := f.index.get(key64(u, v))
	return ok
}

// EdgeState reports the level of the live edge {u,v} and whether it is a
// spanning-forest edge; ok is false when the edge is not live. It exists
// for tests and diagnostics that compare two forests edge by edge.
func (f *Forest) EdgeState(u, v graph.V) (level int, tree, ok bool) {
	if u == v {
		return 0, false, false
	}
	e, ok := f.index.get(key64(u, v))
	if !ok {
		return 0, false, false
	}
	return int(f.edges[e].level), f.edges[e].tree, true
}

// Connected reports whether u and v are in the same component.
func (f *Forest) Connected(u, v graph.V) bool {
	return f.levels[0].connected(u, v)
}

func (f *Forest) level(i int) *ett {
	t := f.levels[i]
	if t == nil {
		t = newETT(f.n, 0, &f.rnd)
		f.levels[i] = t
	}
	return t
}

func (f *Forest) checkVertex(v graph.V) {
	if int(v) >= f.n {
		panic(fmt.Sprintf("dyn: vertex %d out of range [0,%d)", v, f.n))
	}
}

// addNonTree puts e on the level-i non-tree lists of both its endpoints.
func (f *Forest) addNonTree(i int, e int32) {
	t := f.level(i)
	if t.ntHead == nil {
		t.ntHead = make([]int32, f.n)
	}
	ed := &f.edges[e]
	ed.level = uint8(i)
	for side, w := range [2]graph.V{ed.u, ed.v} {
		h := 2*e + int32(side) + 1
		old := t.ntHead[w]
		ed.prev[side], ed.next[side] = 0, old
		if old != 0 {
			f.edges[(old-1)>>1].prev[(old-1)&1] = h
		}
		t.ntHead[w] = h
	}
}

// delNonTree takes e off the non-tree lists of its level.
func (f *Forest) delNonTree(e int32) {
	ed := &f.edges[e]
	t := f.levels[ed.level]
	for side, w := range [2]graph.V{ed.u, ed.v} {
		p, nx := ed.prev[side], ed.next[side]
		if p == 0 {
			t.ntHead[w] = nx
		} else {
			f.edges[(p-1)>>1].next[(p-1)&1] = nx
		}
		if nx != 0 {
			f.edges[(nx-1)>>1].prev[(nx-1)&1] = p
		}
	}
}

// Link inserts the edge {u,v}. It reports whether the insertion merged two
// previously separate components. Self-loops and duplicate edges are no-ops.
func (f *Forest) Link(u, v graph.V) (merged bool) {
	f.checkVertex(u)
	f.checkVertex(v)
	if u == v {
		return false
	}
	k := key64(u, v)
	if _, ok := f.index.get(k); ok {
		return false
	}
	var e int32
	if n := len(f.freeE); n > 0 {
		e = f.freeE[n-1]
		f.freeE = f.freeE[:n-1]
	} else {
		if len(f.edges) >= MaxEdges {
			panic(fmt.Sprintf("dyn: more than %d live edges", MaxEdges))
		}
		e = int32(len(f.edges))
		f.edges = append(f.edges, edge{})
	}
	f.edges[e] = edge{u: graph.V(k >> 32), v: graph.V(k)}
	f.index.put(k, e)
	f.numE++
	t := f.levels[0]
	if !t.connected(u, v) {
		f.edges[e].tree = true
		t.link(f.edges[e].u, f.edges[e].v, e)
		f.comps--
		return true
	}
	f.addNonTree(0, e)
	return false
}

// Cut deletes the edge {u,v}. existed reports whether the edge was live;
// split reports whether the deletion disconnected its component (i.e. no
// replacement edge was found at any level).
func (f *Forest) Cut(u, v graph.V) (split, existed bool) {
	f.checkVertex(u)
	f.checkVertex(v)
	if u == v {
		return false, false
	}
	k := key64(u, v)
	e, ok := f.index.get(k)
	if !ok {
		return false, false
	}
	f.index.del(k)
	f.numE--
	f.freeE = append(f.freeE, e)
	ed := f.edges[e]
	if !ed.tree {
		f.delNonTree(e)
		return false, true
	}
	// Tree edge: drop it from every forest it participates in, then search
	// for a replacement from its level downward.
	for i := int(ed.level); i >= 0; i-- {
		f.levels[i].cut(e)
	}
	for i := int(ed.level); i >= 0; i-- {
		if f.replaceAt(i, ed.u, ed.v) {
			return false, true
		}
	}
	f.comps++
	return true, true
}

// replaceAt searches level i for an edge reconnecting the two trees that u
// and v now head in forest i. If found, it is relinked as a tree edge at
// level i (in forests 0..i) and replaceAt returns true. As a side effect the
// smaller tree's level-i tree edges, and any level-i non-tree edges internal
// to it, are promoted to level i+1 (unless already at the top level).
func (f *Forest) replaceAt(i int, u, v graph.V) bool {
	t := f.levels[i]
	small := u
	if t.treeSize(v) < t.treeSize(u) {
		small = v
	}
	smallRoot := t.root(t.ensure(small))

	// One walk of the smaller tour yields its vertices and, from the dir-0
	// arcs, its tree edges whose level is exactly i.
	f.tour = t.appendTour(small, f.tour[:0], false)
	f.verts, f.promote = f.verts[:0], f.promote[:0]
	for _, x := range f.tour {
		id := t.nodes[x].id
		switch {
		case id&arcFlag == 0:
			f.verts = append(f.verts, graph.V(id))
		case id&1 == 0:
			if e := int32(id&^arcFlag) >> 1; int(f.edges[e].level) == i {
				f.promote = append(f.promote, e)
			}
		}
	}
	if i+1 <= f.maxLevel {
		up := f.level(i + 1)
		for _, e := range f.promote {
			ed := &f.edges[e]
			ed.level = uint8(i + 1)
			up.link(ed.u, ed.v, e)
		}
	}

	// Scan the level-i non-tree edges incident to the smaller tree. Taking
	// an edge off the lists leaves the saved successor valid.
	if t.ntHead == nil {
		return false
	}
	for _, w := range f.verts {
		for h := t.ntHead[w]; h != 0; {
			e, side := (h-1)>>1, (h-1)&1
			ed := &f.edges[e]
			h = ed.next[side]
			z := ed.v
			if side == 1 {
				z = ed.u
			}
			if x := t.loop[z]; x != 0 && t.root(x) == smallRoot {
				// Internal to the smaller tree: promote to level i+1.
				if i+1 <= f.maxLevel {
					f.delNonTree(e)
					f.addNonTree(i+1, e)
				}
				continue
			}
			// Crosses to the other side: replacement found. It becomes a
			// tree edge at level i, joining forests 0..i.
			f.delNonTree(e)
			ed = &f.edges[e]
			ed.tree = true
			for j := i; j >= 0; j-- {
				f.levels[j].link(ed.u, ed.v, e)
			}
			return true
		}
	}
	return false
}

// Labels returns the canonical component census: label[v] is the smallest
// vertex id in v's component (so label[l] == l and l <= v for every v),
// exactly the form inc.FromLabels and cc.Result consumers expect, plus the
// component count. It finds each vertex's treap root on a copy of level
// 0's parent links, pointing every node it climbs through straight at its
// root, so each link is followed once: O(n) in all. The copy is a
// sequential scan, and the climbs then hit a dense int32 array instead of
// the node slab. Visiting vertices in increasing order, the first vertex
// to reach a root is its tree's minimum; the root keeps that label,
// stored as -(label+1) so it cannot be mistaken for a link.
func (f *Forest) Labels() ([]uint32, int) {
	t := f.levels[0]
	up := slices.Grow(f.tour[:0], len(t.nodes))[:len(t.nodes)]
	for x := range t.nodes {
		up[x] = t.nodes[x].parent
	}
	label := make([]uint32, f.n)
	comps := 0
	for v := range label {
		x := t.loop[v]
		if x == 0 {
			label[v] = uint32(v)
			comps++
			continue
		}
		r := x
		for up[r] > 0 {
			r = up[r]
		}
		for up[x] > 0 {
			up[x], x = r, up[x]
		}
		if up[r] == 0 {
			up[r] = -int32(v) - 1
			comps++
		}
		label[v] = uint32(-up[r] - 1)
	}
	f.tour = up
	return label, comps
}
