package aquila

import (
	"maps"
	"sync"

	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/inc"
	"aquila/internal/parallel"
)

// census answers the point and census queries of one epoch — connected,
// component count, largest component, size histogram — without a per-epoch
// label array. It is immutable: epochs share it read-only, and an Apply that
// merges components advances the engine to a new census instead of mutating
// a published one.
//
// A census is a shared base plus a small per-epoch overlay. The base is the
// canonical decomposition the incremental union-find was seeded from; its
// Label and Sizes are used as they are, never copied. The overlay records
// what the batches since then merged:
//
//   - redirect maps every merged base label to its current label, fully
//     resolved, so a lookup is one base label read plus one map probe;
//   - size holds the current size of every label a merge grew.
//
// Both are keyed by base labels. Labels stay min-id canonical, so a merged
// component's label is the smallest of its parts' labels: every current
// label is a base label that no merge has redirected.
type census struct {
	base     *censusBase
	redirect map[uint32]uint32
	size     map[uint32]int

	num          int
	largestLabel uint32
	largestSize  int
}

// censusBase is the decomposition a chain of censuses shares, plus its size
// histogram, built at most once however many epochs ask for it.
type censusBase struct {
	res      *cc.Result
	histOnce sync.Once
	hist     map[int]int
}

// overlayDiv bounds a census's overlay to |V|/overlayDiv redirected labels;
// the Apply that would grow it past the bound re-bases instead. An overlay
// entry costs at most about 60 bytes across the two maps, and a server keeps
// about ten epochs alive (the HTTP front-end's eight retained ones, the
// current one, in-flight readers), so all overlays together stay under
// 10*60/512 ≈ 1.2 bytes per vertex: under a third of one 4-byte label array.
const overlayDiv = 512

// newCensus wraps a canonical (min-id) decomposition as a census with an
// empty overlay.
func newCensus(res *cc.Result) *census {
	return &census{base: &censusBase{res: res}, num: res.NumComponents,
		largestLabel: res.LargestLabel, largestSize: res.LargestSize}
}

// label returns v's current component label.
func (c *census) label(v V) uint32 {
	l := c.base.res.Label[v]
	if r, ok := c.redirect[l]; ok {
		return r
	}
	return l
}

// sizeOf returns the size of the component labeled l; l must be a current
// label.
func (c *census) sizeOf(l uint32) int {
	if s, ok := c.size[l]; ok {
		return s
	}
	return c.base.res.Sizes[l]
}

// connected reports whether u and v share a component.
func (c *census) connected(u, v V) bool { return c.label(u) == c.label(v) }

// advance returns the census after batch, whose edges st has just united
// (merged is the number of merges inc.State.Apply reported). It runs in
// O(batch + overlay): it groups the previous labels of the batch endpoints by
// their new root, which is the smallest label of its group, so the root's
// size is the sum of the group's sizes. Once the overlay would pass
// |V|/overlayDiv entries it re-bases on a fresh flatten of st instead.
func (c *census) advance(st *inc.State, batch []graph.Edge, merged, threads int) *census {
	if len(c.redirect)+merged > len(c.base.res.Label)/overlayDiv {
		return newCensus(st.CCResult(threads))
	}
	// moved maps every previous label the batch absorbed to its new root;
	// grow sums, per new root, the sizes it absorbed.
	moved := make(map[uint32]uint32, merged)
	grow := make(map[uint32]int, merged)
	for _, ed := range batch {
		lu, lv := c.label(ed.U), c.label(ed.V)
		if lu == lv {
			continue
		}
		r := st.Find(ed.U)
		for _, l := range [2]uint32{lu, lv} {
			if _, seen := moved[l]; seen || l == r {
				continue
			}
			moved[l] = r
			grow[r] += c.sizeOf(l)
		}
	}

	next := &census{
		base:         c.base,
		redirect:     make(map[uint32]uint32, len(c.redirect)+len(moved)),
		size:         make(map[uint32]int, len(c.size)+len(grow)),
		num:          c.num - merged,
		largestLabel: c.largestLabel,
		largestSize:  c.largestSize,
	}
	for b, l := range c.redirect {
		if r, ok := moved[l]; ok {
			l = r
		}
		next.redirect[b] = l
	}
	for l, r := range moved {
		next.redirect[l] = r
	}
	for l, s := range c.size {
		if _, gone := moved[l]; !gone {
			next.size[l] = s
		}
	}
	// Sizes only grow, so only a grown root can become the largest. Ties go
	// to the smaller label, as in every cc.Result.
	for r, g := range grow {
		s := c.sizeOf(r) + g
		next.size[r] = s
		if s > next.largestSize || (s == next.largestSize && r < next.largestLabel) {
			next.largestLabel, next.largestSize = r, s
		}
	}
	return next
}

// result materializes the census as a complete cc.Result: the base itself
// when the overlay is empty, otherwise a fresh label array and size map.
func (c *census) result(threads int) *cc.Result {
	base := c.base.res
	if len(c.redirect) == 0 {
		return base
	}
	label := make([]uint32, len(base.Label))
	parallel.ForBlocks(0, len(label), parallel.Threads(threads), func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			label[v] = c.label(V(v))
		}
	})
	sizes := maps.Clone(base.Sizes)
	for b := range c.redirect {
		delete(sizes, b)
	}
	maps.Copy(sizes, c.size)
	return &cc.Result{Label: label, NumComponents: c.num, Sizes: sizes,
		LargestLabel: c.largestLabel, LargestSize: c.largestSize}
}

// histogram returns a fresh map from component size to the number of
// components of that size: the base's histogram adjusted by the overlay.
func (c *census) histogram() map[int]int {
	b := c.base
	b.histOnce.Do(func() {
		b.hist = make(map[int]int)
		for _, s := range b.res.Sizes {
			b.hist[s]++
		}
	})
	h := maps.Clone(b.hist)
	drop := func(s int) {
		if h[s]--; h[s] == 0 {
			delete(h, s)
		}
	}
	for l := range c.redirect {
		drop(b.res.Sizes[l])
	}
	for l, s := range c.size {
		drop(b.res.Sizes[l])
		h[s]++
	}
	return h
}

// largest answers LargestCC from the census; an out-of-range vertex is in no
// component.
func (c *census) largest() *LargestResult {
	n := len(c.base.res.Label)
	lbl := c.largestLabel
	return &LargestResult{
		Size: c.largestSize, Pivot: V(lbl),
		contains: func(v V) bool { return int(v) < n && c.label(v) == lbl },
	}
}
