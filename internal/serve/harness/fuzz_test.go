package harness

import (
	"context"
	"maps"
	"testing"
	"time"

	"aquila"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/verify"
)

// FuzzServerSchedule drives a deterministic, single-threaded op schedule
// decoded from the fuzz input — queries, Apply batches, snapshot pins,
// cancelled queries and near-zero deadlines — against a live Server, checking
// every successful answer against a serial-DFS oracle evaluated on an
// incrementally maintained edge-set mirror. Unlike TestServerInterleavings
// (which explores thread interleavings), this explores the *schedule* space:
// weird Apply/pin/cancel orders that the random schedules are unlikely to hit.
//
// The schedule addresses only the first span vertices. The rest are a
// 100-vertex path starting at the last addressed vertex, then isolated
// vertices: the census overlay bound (|V|/512) admits 3 merges before an
// insert-only Apply re-bases, the rebuild threshold a few batches, and a
// merge with the path lets a smaller-id component absorb the largest one.
func FuzzServerSchedule(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x35, 0x46, 0x57})
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x07, 0x70, 0x07, 0x70})
	// Insert-only: merges that grow the census overlay, a pin, a merge that
	// re-resolves an overlay entry, one that crosses the bound while a
	// singleton absorbs the path, then one more absorption from the overlay.
	f.Add([]byte{0x00, 0x01, 0x00, 0x05, 0x04, 0x09, 0x06, 0x00, 0x00, 0x01, 0x04,
		0x01, 0x09, 0x00, 0x02, 0x07, 0x00, 0x05, 0x00, 0x00, 0x11, 0x17, 0x02,
		0x00, 0x00, 0x01, 0x0b, 0x00, 0x00, 0x05, 0x11, 0x01, 0x17, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, span = 1536, 24
		mirror := newMirror(n)
		base := []aquila.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 6}}
		for v := aquila.V(span - 1); v < span+98; v++ {
			base = append(base, aquila.Edge{U: v, V: v + 1})
		}
		mirror.add(base)
		srv := aquila.NewServer(
			aquila.NewEngine(aquila.NewUndirected(n, base), aquila.Options{Threads: 2}),
			aquila.ServerConfig{MaxQueue: 64})
		ctx := context.Background()

		// One pinned snapshot slot: op 6 re-pins it, ops 7.. query whichever
		// snapshot is pinned (initially epoch 0) against its frozen mirror.
		pinned := srv.Acquire()
		pinnedEdges := mirror.snapshot()

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for steps := 0; steps < 64; steps++ {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 8 {
			case 0: // apply a decoded batch of mixed inserts and deletes
				k, ok := next()
				if !ok {
					return
				}
				batch := make([]aquila.Update, 0, int(k%5)+1)
				for j := 0; j <= int(k%5); j++ {
					ub, ok1 := next()
					vb, ok2 := next()
					if !ok1 || !ok2 {
						break
					}
					u, v := aquila.V(int(ub)%span), aquila.V(int(vb)%span)
					switch {
					case ub%4 == 3 && len(mirror.edges) > 0:
						// Delete a live edge, addressed deterministically
						// through the mirror's slice.
						e := mirror.edges[int(vb)%len(mirror.edges)]
						batch = append(batch, aquila.Delete(e.U, e.V))
					case ub%4 == 2:
						batch = append(batch, aquila.Delete(u, v)) // likely a miss
					default:
						batch = append(batch, aquila.Insert(u, v))
					}
				}
				if len(batch) == 0 {
					continue
				}
				if _, err := srv.ApplyUpdates(batch); err != nil {
					t.Fatalf("ApplyUpdates: %v", err)
				}
				mirror.apply(batch)
			case 1: // Connected on the live epoch
				ub, _ := next()
				vb, _ := next()
				u, v := aquila.V(int(ub)%span), aquila.V(int(vb)%span)
				got, err := srv.Connected(ctx, u, v)
				if err != nil {
					t.Fatalf("Connected: %v", err)
				}
				truth := serialdfs.CC(mirror.graph())
				if want := truth[u] == truth[v]; got != want {
					t.Fatalf("Connected(%d,%d) = %v, oracle %v (edges %v)", u, v, got, want, mirror.edges)
				}
			case 2: // census queries, then the full CC decomposition, on the live epoch
				checkCensusQueries(t, "live", srv.Acquire(), mirror.graph(), span)
				res, err := srv.CC(ctx)
				if err != nil {
					t.Fatalf("CC: %v", err)
				}
				if err := verify.SamePartition(res.Label, serialdfs.CC(mirror.graph())); err != nil {
					t.Fatalf("CC: %v", err)
				}
			case 3: // articulation points on the live epoch
				aps, err := srv.ArticulationPoints(ctx)
				if err != nil {
					t.Fatalf("APs: %v", err)
				}
				checkAPs(t, aps, mirror.graph())
			case 4: // cancelled query: context error or a correct answer
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				if cnt, err := srv.CountCC(cctx); err == nil {
					if want := countDistinct(serialdfs.CC(mirror.graph())); cnt != want {
						t.Fatalf("cancelled CountCC = %d, oracle %d", cnt, want)
					}
				}
			case 5: // near-zero deadline: either outcome, answers must be right
				us, _ := next()
				dctx, cancel := context.WithTimeout(ctx, time.Duration(us%50)*time.Microsecond)
				if ok2, err := srv.IsConnected(dctx); err == nil {
					if want := countDistinct(serialdfs.CC(mirror.graph())) == 1; ok2 != want {
						cancel()
						t.Fatalf("deadline IsConnected = %v, oracle %v", ok2, want)
					}
				}
				cancel()
			case 6: // re-pin the snapshot slot at the live epoch
				pinned = srv.Acquire()
				pinnedEdges = mirror.snapshot()
			case 7: // query the pinned snapshot against its frozen edge set
				ub, _ := next()
				vb, _ := next()
				u, v := aquila.V(int(ub)%span), aquila.V(int(vb)%span)
				got, err := pinned.Connected(ctx, u, v)
				if err != nil {
					t.Fatalf("pinned Connected: %v", err)
				}
				truth := serialdfs.CC(aquila.NewUndirected(n, pinnedEdges))
				if want := truth[u] == truth[v]; got != want {
					t.Fatalf("pinned(epoch %d) Connected(%d,%d) = %v, oracle %v",
						pinned.Epoch(), u, v, got, want)
				}
				checkCensusQueries(t, "pinned", pinned, aquila.NewUndirected(n, pinnedEdges), span)
			}
		}
		// Whatever the schedule did, the live epoch must equal the mirror, and
		// the pinned one its frozen edge set.
		checkCensusQueries(t, "final live", srv.Acquire(), mirror.graph(), span)
		checkCensusQueries(t, "final pinned", pinned, aquila.NewUndirected(n, pinnedEdges), span)
		res, err := srv.CC(ctx)
		if err != nil {
			t.Fatalf("final CC: %v", err)
		}
		if err := verify.SamePartition(res.Label, serialdfs.CC(mirror.graph())); err != nil {
			t.Fatalf("final CC: %v", err)
		}
	})
}

// checkCensusQueries checks a snapshot's census answers — the size
// histogram, and the largest component's size, pivot and membership of the
// first span vertices — against the serial-DFS oracle on g.
func checkCensusQueries(t *testing.T, which string, sn *aquila.Snapshot, g *aquila.Undirected, span int) {
	t.Helper()
	ctx := context.Background()
	truth := serialdfs.CC(g)
	sizes := componentSizes(truth)
	want := make(map[int]int)
	largest := 0
	for _, s := range sizes {
		want[s]++
		largest = max(largest, s)
	}
	hist, err := sn.CCSizeHistogram(ctx)
	if err != nil {
		t.Fatalf("%s CCSizeHistogram: %v", which, err)
	}
	if !maps.Equal(hist, want) {
		t.Fatalf("%s(epoch %d) CCSizeHistogram = %v, oracle %v", which, sn.Epoch(), hist, want)
	}
	res, err := sn.LargestCC(ctx)
	if err != nil {
		t.Fatalf("%s LargestCC: %v", which, err)
	}
	if res.Size != largest || sizes[truth[res.Pivot]] != largest {
		t.Fatalf("%s(epoch %d) LargestCC = size %d pivot %d, oracle largest %d",
			which, sn.Epoch(), res.Size, res.Pivot, largest)
	}
	for v := aquila.V(0); v < aquila.V(span); v++ {
		if want := truth[v] == truth[res.Pivot]; res.Contains(v) != want {
			t.Fatalf("%s(epoch %d) LargestCC.Contains(%d) = %v, oracle %v", which, sn.Epoch(), v, !want, want)
		}
	}
}

// mirror incrementally maintains the deduped simple edge set the engine
// holds after a sequence of update batches. The slice gives deterministic
// addressing for the fuzzer's delete ops; removal swap-deletes while the map
// tracks each edge's slot.
type mirror struct {
	n     int
	seen  map[[2]aquila.V]int // normalized edge -> index in edges
	edges []aquila.Edge
}

func newMirror(n int) *mirror {
	return &mirror{n: n, seen: make(map[[2]aquila.V]int)}
}

func (m *mirror) add(es []aquila.Edge) {
	for _, e := range es {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]aquila.V{u, v}
		if _, dup := m.seen[k]; dup {
			continue
		}
		m.seen[k] = len(m.edges)
		m.edges = append(m.edges, aquila.Edge{U: u, V: v})
	}
}

func (m *mirror) remove(u, v aquila.V) {
	if u > v {
		u, v = v, u
	}
	k := [2]aquila.V{u, v}
	i, ok := m.seen[k]
	if !ok {
		return
	}
	last := len(m.edges) - 1
	m.edges[i] = m.edges[last]
	m.seen[[2]aquila.V{m.edges[i].U, m.edges[i].V}] = i
	m.edges = m.edges[:last]
	delete(m.seen, k)
}

func (m *mirror) apply(batch []aquila.Update) {
	for _, up := range batch {
		if up.Op == aquila.OpInsert {
			m.add([]aquila.Edge{{U: up.U, V: up.V}})
		} else {
			m.remove(up.U, up.V)
		}
	}
}

func (m *mirror) graph() *aquila.Undirected { return aquila.NewUndirected(m.n, m.edges) }

func (m *mirror) snapshot() []aquila.Edge {
	out := make([]aquila.Edge, len(m.edges))
	copy(out, m.edges)
	return out
}

func checkAPs(t *testing.T, got []aquila.V, g *aquila.Undirected) {
	t.Helper()
	want := serialdfs.APs(g)
	gotSet := make([]bool, g.NumVertices())
	for _, v := range got {
		gotSet[v] = true
	}
	if want == nil {
		want = make([]bool, g.NumVertices())
	}
	if err := verify.SameBoolSet(gotSet, want, "AP"); err != nil {
		t.Fatal(err)
	}
}
