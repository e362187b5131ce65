package graph

import (
	"cmp"
	"slices"
	"sort"

	"aquila/internal/parallel"
)

// Change is one entry of a signed edge-change log: the arc U→V (or the
// undirected edge {U,V}) was inserted, or deleted when Del is set. A log
// that only records effective changes — an insert of an absent key, a delete
// of a present one — alternates signs per key, which is what lets Patch net
// it out without replaying it in order.
type Change struct {
	U, V V
	Del  bool
}

// netChanges reduces a change log to its net effect, one entry per key,
// sorted by (U, V). Per key the log alternates, so the net is the sign of
// the majority: one more insert than deletes adds the key, one more delete
// removes it, a tie leaves it as it was. With sym set every entry also
// stands for its reverse (undirected logs), so the result holds both
// directions of each net edge.
func netChanges(log []Change, sym bool) []Change {
	k := len(log)
	if sym {
		k *= 2
	}
	buf := make([]Change, 0, k)
	for _, c := range log {
		if c.U == c.V {
			continue
		}
		buf = append(buf, c)
		if sym {
			buf = append(buf, Change{U: c.V, V: c.U, Del: c.Del})
		}
	}
	slices.SortFunc(buf, func(a, b Change) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	out := buf[:0]
	for i := 0; i < len(buf); {
		j, net := i, 0
		for ; j < len(buf) && buf[j].U == buf[i].U && buf[j].V == buf[i].V; j++ {
			if buf[j].Del {
				net--
			} else {
				net++
			}
		}
		if net != 0 {
			out = append(out, Change{U: buf[i].U, V: buf[i].V, Del: net < 0})
		}
		i = j
	}
	return out
}

// Patch returns g with the change log applied: the arcs the log nets as
// inserted are added, the ones it nets as deleted are removed. g is not
// modified. The out-CSR is one linear merge of g's rows with the net
// changes, so the cost is O(|V| + |E|) plus a sort of the log; no edge list
// is built. The in-CSR is patched the same way when g has built it, and
// otherwise left for the result to derive on first use. Inserting a present
// arc or deleting an absent one is a no-op, so the result is a valid graph
// for any log.
func (g *Directed) Patch(log []Change, threads int) *Directed {
	net := netChanges(log, false)
	if len(net) == 0 {
		return g
	}
	p := buildThreads(threads, len(g.outAdj))
	outOff, outAdj := patchCSR(g.outOff, g.outAdj, net, p)
	d := &Directed{n: g.n, outOff: outOff, outAdj: outAdj}
	if in := g.in.p.Load(); in != nil {
		for i := range net {
			net[i].U, net[i].V = net[i].V, net[i].U
		}
		slices.SortFunc(net, func(a, b Change) int {
			if a.U != b.U {
				return cmp.Compare(a.U, b.U)
			}
			return cmp.Compare(a.V, b.V)
		})
		d.withIn(patchCSR(in.off, in.adj, net, p))
	}
	return d
}

// PatchWithView is Patch for the graph that replaces g, such as an engine's
// next base. When g's undirected view is built, the result's view is that
// view with edges — the undirected changes the arc log makes, as
// Undirected.Patch takes them — merged in, so it costs one linear merge
// instead of a fresh Undirect. Otherwise the result builds its own view on
// first use, and edges is not read.
func (g *Directed) PatchWithView(arcs, edges []Change, threads int) *Directed {
	d := g.Patch(arcs, threads)
	if d != g {
		if u := g.und.p.Load(); u != nil {
			d.und.p.Store(u.Patch(edges, threads))
		}
	}
	return d
}

// Patch returns g with the undirected change log applied (an entry {U,V}
// stands for the edge in either order). It is Directed.Patch for the
// symmetric CSR: one merge of g's rows with both directions of every net
// change. The edge-id index is left for EdgeIDs to build on first use.
func (g *Undirected) Patch(log []Change, threads int) *Undirected {
	net := netChanges(log, true)
	if len(net) == 0 {
		return g
	}
	off, adj := patchCSR(g.off, g.adj, net, buildThreads(threads, len(g.adj)))
	return &Undirected{n: g.n, off: off, adj: adj}
}

// patchCSR merges the net changes (sorted by row, then column, one entry per
// key) into the CSR (off, adj) with up to p workers. A row without changes
// is copied as it is; a changed row is merged with its changes.
func patchCSR(off []int64, adj []V, net []Change, p int) ([]int64, []V) {
	n := len(off) - 1
	noff := make([]int64, n+1)
	// Offsets: every row keeps its length except the changed ones, so the
	// shift accumulated by earlier rows carries forward row by row.
	var shift int64
	j := 0
	for u := 0; u < n; u++ {
		noff[u] = off[u] + shift
		lo := j
		for j < len(net) && int(net[j].U) == u {
			j++
		}
		if lo < j {
			shift += int64(mergeRow(nil, adj[off[u]:off[u+1]], net[lo:j])) - (off[u+1] - off[u])
		}
	}
	noff[n] = off[n] + shift
	nadj := make([]V, noff[n])
	bounds := degreeChunks(noff, p)
	parallel.ForDynamic(0, len(bounds), p, 1, func(ci int) {
		lo := 0
		if ci > 0 {
			lo = int(bounds[ci-1])
		}
		j := sort.Search(len(net), func(i int) bool { return int(net[i].U) >= lo })
		for u := lo; u < int(bounds[ci]); u++ {
			k := j
			for k < len(net) && int(net[k].U) == u {
				k++
			}
			row, dst := adj[off[u]:off[u+1]], nadj[noff[u]:noff[u+1]]
			if j == k {
				copy(dst, row)
			} else {
				mergeRow(dst, row, net[j:k])
			}
			j = k
		}
	})
	return noff, nadj
}

// mergeRow writes the sorted row with one vertex's net changes applied into
// dst (when dst is non-nil) and returns the merged length.
func mergeRow(dst, row []V, ch []Change) int {
	i, j, k := 0, 0, 0
	put := func(v V) {
		if dst != nil {
			dst[k] = v
		}
		k++
	}
	for i < len(row) || j < len(ch) {
		switch {
		case j == len(ch) || (i < len(row) && row[i] < ch[j].V):
			put(row[i])
			i++
		case i == len(row) || ch[j].V < row[i]:
			if !ch[j].Del {
				put(ch[j].V)
			}
			j++
		default: // the change targets a present neighbor
			if !ch[j].Del {
				put(row[i])
			}
			i++
			j++
		}
	}
	return k
}
