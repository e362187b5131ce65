// Package dyn implements Aquila's fully dynamic connectivity layer: an
// Euler-tour-tree spanning forest with HDT-style per-edge levels
// (Holm, de Lichtenberg & Thorup, J.ACM 2001; the parallel-euler-tour-tree
// lineage of Shun, Dhulipala & Blelloch, SPAA 2014 is the exemplar named in
// SNIPPETS.md §3). Unlike the monotone union-find of internal/inc, a Forest
// supports edge deletions: cutting a spanning-forest edge searches the
// non-tree edges level by level for a replacement, and only reports a
// component split when none exists.
//
// The tour sequences are stored in randomized treaps (balanced BSTs over the
// implicit tour position), so Link, Cut and Connected are all O(log n)
// expected per forest level. The layout holds no Go pointers: each level's
// treap nodes live in one slab and link to each other by int32 index, the
// live edges sit in one flat record table, and the maps from endpoints to
// edge and from edge to tour arcs are open-addressing tables of integers.
// Per-level non-tree adjacency is an intrusive doubly linked list threaded
// through the edge records. The garbage collector has nothing to scan, and
// every walk follows slab and list order, so the structure — which
// replacement edge a Cut finds, which edges it promotes, the level and tree
// flag of every edge — is reproducible run to run. Treap priorities come
// from a deterministically seeded RNG. The differential and fuzz harnesses
// rely on that reproducibility.
//
// A Forest is NOT safe for concurrent use; callers (the Engine) serialize
// all access. Connected performs no rotations and allocates nothing, but
// Labels works in a scratch buffer, so even reads must not run
// concurrently with each other or with Link/Cut.
package dyn

import (
	"math"
	"math/bits"

	"aquila/internal/graph"
)

// arcFlag marks a tour node as one direction of a tree arc rather than a
// vertex loop. An arc node's id is arcFlag | edge<<1 | dir, where dir 0 is
// the arc from the edge's lower endpoint.
const arcFlag = 1 << 31

// The int32 links bound a Forest's size. A level's slab holds at most one
// loop per vertex, an arc pair per tree edge (a forest has fewer than n)
// and the sentinel, 3n-1 nodes in all. Edge ids must fit an arc id
// (edge<<1 below arcFlag) and a non-tree half-edge handle (2*edge+2).
const (
	MaxVertices = (math.MaxInt32 + 1) / 3
	MaxEdges    = math.MaxInt32 / 2
)

// node is one element of a tour sequence: either a vertex loop (every vertex
// appears exactly once per tour) or one direction of a tree arc. The treap
// is keyed by implicit position; pri maintains the heap shape. Links are
// slab indices, with 0 standing for nil.
type node struct {
	parent, left, right int32
	loops               int32 // vertex-loop nodes in this subtree
	pri                 uint32
	id                  uint32 // loop: the vertex; arc: arcFlag | edge<<1 | dir
}

// rng is a splitmix64 generator for treap priorities — deterministic per
// Forest so test failures replay exactly.
type rng struct{ s uint64 }

func (r *rng) next() uint32 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32((z ^ (z >> 31)) >> 32)
}

// ett is the Euler-tour forest at one HDT level: a treap-backed tour per
// tree, all of them in one node slab. Vertex loop nodes are allocated on
// first touch (levels above 0 only ever see the vertices promoted into
// them); arc nodes come in pairs at consecutive indices, and a cut returns
// its pair to the free list.
type ett struct {
	rnd   *rng
	nodes []node  // nodes[0] is the nil sentinel: all links 0, loops 0
	loop  []int32 // per-vertex loop node, 0 until first touched
	arcs  table   // edge id + 1 -> slab index of the edge's dir-0 arc
	free  []int32 // first indices of freed arc pairs
	// ntHead[v] is the first half-edge (plus one) of v's list of non-tree
	// edges at this level, 0 when empty; nil until the level has one.
	ntHead []int32
}

// newETT returns an empty level over n vertices, its slab sized for loops
// plus arc pairs of up to trees tree edges.
func newETT(n, trees int, rnd *rng) *ett {
	t := &ett{rnd: rnd, nodes: make([]node, 1, 1+n+2*trees), loop: make([]int32, n)}
	t.arcs = newTable(trees)
	return t
}

func (t *ett) update(x int32) {
	nd := &t.nodes[x]
	l := t.nodes[nd.left].loops + t.nodes[nd.right].loops
	if nd.id&arcFlag == 0 {
		l++
	}
	nd.loops = l
}

// root climbs to the treap root; two nodes are in one tour iff their roots
// are identical.
func (t *ett) root(x int32) int32 {
	for p := t.nodes[x].parent; p != 0; p = t.nodes[x].parent {
		x = p
	}
	return x
}

// merge concatenates two treaps (every element of a before every element of
// b) and returns the new root.
func (t *ett) merge(a, b int32) int32 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if t.nodes[a].pri >= t.nodes[b].pri {
		r := t.merge(t.nodes[a].right, b)
		t.nodes[a].right = r
		t.nodes[r].parent = a
		t.update(a)
		return a
	}
	l := t.merge(a, t.nodes[b].left)
	t.nodes[b].left = l
	t.nodes[l].parent = b
	t.update(b)
	return b
}

// splitBefore splits x's treap into (everything before x, x and everything
// after), returning the two roots. It works bottom-up through the parent
// links: each ancestor joins the left or right part depending on which side
// the climb came from, which preserves the heap order because the subtree it
// adopts was already part of its original subtree.
func (t *ett) splitBefore(x int32) (l, r int32) {
	l = t.nodes[x].left
	if l != 0 {
		t.nodes[l].parent = 0
		t.nodes[x].left = 0
	}
	r = x
	t.update(r)
	cur, p := x, t.nodes[x].parent
	t.nodes[x].parent = 0
	for p != 0 {
		np := &t.nodes[p]
		next := np.parent
		np.parent = 0
		if np.right == cur {
			np.right = l
			if l != 0 {
				t.nodes[l].parent = p
			}
			t.update(p)
			l = p
		} else {
			np.left = r
			t.nodes[r].parent = p
			t.update(p)
			r = p
		}
		cur, p = p, next
	}
	return l, r
}

// remove deletes the single node x from its treap and returns the root of
// what remains (0 if x was the only node).
func (t *ett) remove(x int32) int32 {
	nx := t.nodes[x]
	sub := t.merge(nx.left, nx.right)
	p := nx.parent
	if sub != 0 {
		t.nodes[sub].parent = p
	}
	t.nodes[x].parent, t.nodes[x].left, t.nodes[x].right = 0, 0, 0
	if p == 0 {
		return sub
	}
	if t.nodes[p].left == x {
		t.nodes[p].left = sub
	} else {
		t.nodes[p].right = sub
	}
	r := p
	for q := p; q != 0; q = t.nodes[q].parent {
		t.update(q)
		r = q
	}
	return r
}

// ensure returns v's loop node, allocating a singleton tour on first touch.
func (t *ett) ensure(v graph.V) int32 {
	x := t.loop[v]
	if x == 0 {
		x = int32(len(t.nodes))
		t.nodes = append(t.nodes, node{pri: t.rnd.next(), loops: 1, id: v})
		t.loop[v] = x
	}
	return x
}

// connected reports whether u and v share a tour. A vertex without a loop
// node is alone in its tree.
func (t *ett) connected(u, v graph.V) bool {
	if u == v {
		return true
	}
	lu, lv := t.loop[u], t.loop[v]
	return lu != 0 && lv != 0 && t.root(lu) == t.root(lv)
}

// treeSize returns the number of vertices in v's tree.
func (t *ett) treeSize(v graph.V) int {
	if x := t.loop[v]; x != 0 {
		return int(t.nodes[t.root(x)].loops)
	}
	return 1
}

// reroot rotates the tour containing x so it starts at x.
func (t *ett) reroot(x int32) int32 {
	l, r := t.splitBefore(x)
	return t.merge(r, l)
}

// link joins the trees of u < v with the tree edge e = {u,v}. The callers
// guarantee the trees are distinct.
func (t *ett) link(u, v graph.V, e int32) {
	tu := t.reroot(t.ensure(u))
	tv := t.reroot(t.ensure(v))
	var a int32
	if k := len(t.free); k > 0 {
		a = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		a = int32(len(t.nodes))
		t.nodes = append(t.nodes, node{}, node{})
	}
	id := arcFlag | uint32(e)<<1
	t.nodes[a] = node{pri: t.rnd.next(), id: id}
	t.nodes[a+1] = node{pri: t.rnd.next(), id: id | 1}
	t.arcs.put(uint64(e)+1, a)
	t.merge(t.merge(t.merge(tu, a), tv), a+1)
}

// cut removes the tree edge e, splitting its tour in two. The edge must be a
// tree edge at this level.
func (t *ett) cut(e int32) {
	a, _ := t.arcs.get(uint64(e) + 1)
	t.arcs.del(uint64(e) + 1)
	b := a + 1
	// The tour reads pre, x, inner, y, post with {x, y} = {a, b}; dropping
	// both arcs leaves inner as the split-off tree and pre+post as the tour
	// of the remaining one. remove returns the surviving roots, since a and
	// b may themselves be the roots of their split parts.
	l, r := t.splitBefore(a)
	if t.root(b) == r { // a precedes b
		t.splitBefore(b)
		t.remove(a)
		t.merge(l, t.remove(b))
	} else { // b precedes a
		pre, _ := t.splitBefore(b)
		t.remove(b)
		t.merge(pre, t.remove(a))
	}
	t.free = append(t.free, a)
}

// appendTour appends the slab index of every node of v's tour to out, in a
// fixed order (breadth-first over the treap), and returns it. With
// loopsOnly it skips subtrees that hold no vertex loop.
func (t *ett) appendTour(v graph.V, out []int32, loopsOnly bool) []int32 {
	start := len(out)
	out = append(out, t.root(t.ensure(v)))
	for i := start; i < len(out); i++ {
		nd := &t.nodes[out[i]]
		for _, c := range [2]int32{nd.left, nd.right} {
			if c != 0 && (!loopsOnly || t.nodes[c].loops > 0) {
				out = append(out, c)
			}
		}
	}
	return out
}

// table is an open-addressing hash map from non-zero uint64 keys to int32
// values: linear probing, backward-shift deletion, no tombstones. It holds no
// pointers and never iterates, so its layout cannot leak into any result.
type table struct {
	keys  []uint64 // 0 marks an empty slot
	vals  []int32
	n     int
	shift uint8
}

// newTable returns a table that holds hint keys without growing.
func newTable(hint int) table {
	size := 8
	for size*3 < hint*4 {
		size *= 2
	}
	return table{keys: make([]uint64, size), vals: make([]int32, size),
		shift: uint8(64 - bits.TrailingZeros(uint(size)))}
}

func (t *table) slot(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> t.shift) }

// get returns the value stored under k.
func (t *table) get(k uint64) (int32, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put stores v under k, which must not be present, growing at 3/4 load.
func (t *table) put(k uint64, v int32) {
	if (t.n+1)*4 > len(t.keys)*3 {
		old, oldv := t.keys, t.vals
		*t = newTable(2 * len(old) * 3 / 4)
		for i, ok := range old {
			if ok != 0 {
				t.put(ok, oldv[i])
			}
		}
	}
	mask := len(t.keys) - 1
	i := t.slot(k)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = k, v
	t.n++
}

// del removes k if present, shifting later members of its probe run back
// so every remaining key stays reachable from its home slot.
func (t *table) del(k uint64) {
	mask := len(t.keys) - 1
	i := t.slot(k)
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i only if its home slot does not
		// lie cyclically in (i, j].
		if h := t.slot(t.keys[j]); (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, 0
	t.n--
}
