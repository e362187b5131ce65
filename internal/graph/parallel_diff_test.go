package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// diffLCG is a tiny deterministic generator for differential inputs (the gen
// package can't be imported here: it depends on graph).
type diffLCG uint64

func (r *diffLCG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 11
}

func (r *diffLCG) intn(n int) int { return int(r.next() % uint64(n)) }

// diffEdges generates m edges over n vertices: mostly uniform, a skewed slice
// aimed at a handful of hubs, plus sprinkled self-loops and duplicates so the
// drop/dedup paths are exercised.
func diffEdges(n, m int, seed uint64) []Edge {
	r := diffLCG(seed)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := V(r.intn(n))
		v := V(r.intn(n))
		switch r.intn(10) {
		case 0: // hub edge
			v = V(r.intn(1 + n/50))
		case 1: // self-loop
			v = u
		case 2: // duplicate of an earlier edge
			if len(edges) > 0 {
				e := edges[r.intn(len(edges))]
				u, v = e.U, e.V
			}
		}
		edges = append(edges, Edge{u, v})
	}
	return edges
}

// sameDirected checks got against want CSR by CSR, byte for byte. Each
// graph's in-CSR is read through InCSR, so one built lazily is compared as
// built.
func sameDirected(t *testing.T, want, got *Directed) {
	t.Helper()
	if want.n != got.n {
		t.Fatalf("n: want %d, got %d", want.n, got.n)
	}
	wInOff, wInAdj := want.InCSR()
	gInOff, gInAdj := got.InCSR()
	for _, c := range []struct {
		name       string
		wOff, gOff []int64
		wAdj, gAdj []V
	}{
		{"out", want.outOff, got.outOff, want.outAdj, got.outAdj},
		{"in", wInOff, gInOff, wInAdj, gInAdj},
	} {
		if !reflect.DeepEqual(c.wOff, c.gOff) {
			t.Fatalf("%s-CSR offsets differ", c.name)
		}
		if !reflect.DeepEqual(c.wAdj, c.gAdj) {
			t.Fatalf("%s-CSR adjacency differs", c.name)
		}
	}
}

// sameUndirected checks got against want field by field: the CSR arrays
// byte-identical, and got's edge ids and derived mate slots equal to the seed
// binary-search finish over that CSR.
func sameUndirected(t *testing.T, want, got *Undirected) {
	t.Helper()
	if want.n != got.n || want.NumEdges() != got.NumEdges() {
		t.Fatalf("shape: want n=%d m=%d, got n=%d m=%d", want.n, want.NumEdges(), got.n, got.NumEdges())
	}
	if !reflect.DeepEqual(want.off, got.off) {
		t.Fatal("offsets differ")
	}
	if !reflect.DeepEqual(want.adj, got.adj) {
		t.Fatal("adjacency differs")
	}
	wantMate, wantEid := seedEdgeIndex(want.n, want.off, want.adj)
	if !slices.Equal(wantMate, mateSlots(got.off, got.adj)) {
		t.Fatal("mate index differs")
	}
	if !slices.Equal(wantEid, got.EdgeIDs()) {
		t.Fatal("edge ids differ")
	}
}

// seedEdgeIndex is the seed mate/eid finish — ids dense in (lower endpoint,
// slot) order, each reverse slot found by binary search — kept as the oracle
// for the cursor pass (walkEdges).
func seedEdgeIndex(n int, off []int64, adj []V) (mate, eid []int64) {
	mate = make([]int64, len(adj))
	eid = make([]int64, len(adj))
	var m int64
	for u := 0; u < n; u++ {
		for s := off[u]; s < off[u+1]; s++ {
			v := adj[s]
			if V(u) < v {
				r := searchSlot(off, adj, v, V(u))
				mate[s], mate[r] = r, s
				eid[s], eid[r] = m, m
				m++
			}
		}
	}
	return mate, eid
}

// TestBuildDirectedParallelMatchesSerial pins the tentpole determinism claim:
// every worker count yields byte-identical CSRs to the serial seed builder,
// the in-CSR as the graph builds it on first use. Large cases go through the
// public API (past the minParallelBuild clamp); small cases drive buildCSR
// directly so degenerate shapes still hit the parallel code path.
func TestBuildDirectedParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{50, 400}, {1000, 5000}, {4000, minParallelBuild + 7}, {1 << 12, 1 << 16},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			edges := diffEdges(tc.n, tc.m, seed)
			want := BuildDirectedSerial(tc.n, edges)
			for _, p := range []int{2, 3, 4, 8} {
				got := BuildDirectedThreads(tc.n, edges, p)
				if tc.m < minParallelBuild {
					outOff, outAdj := buildCSR(tc.n, edges, p)
					got = &Directed{n: tc.n, outOff: outOff, outAdj: outAdj}
				}
				if got.InBuilt() {
					t.Fatal("the builder built the in-CSR")
				}
				sameDirected(t, want, got)
			}
		}
	}
}

func TestBuildUndirectedParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{50, 400}, {1000, 5000}, {1 << 12, minParallelBuild + 100}, {1 << 12, 1 << 16},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			edges := diffEdges(tc.n, tc.m, seed)
			want := BuildUndirectedSerial(tc.n, edges)
			for _, p := range []int{2, 4, 8} {
				var got *Undirected
				if tc.m >= minParallelBuild {
					got = BuildUndirectedThreads(tc.n, edges, p)
				} else {
					// Force the parallel symmetrize+build path below the
					// size clamp.
					sym := make([]Edge, 0, 2*len(edges))
					for _, e := range edges {
						sym = append(sym, e, Edge{e.V, e.U})
					}
					off, adj := buildCSR(tc.n, sym, p)
					got = &Undirected{n: tc.n, off: off, adj: adj}
				}
				sameUndirected(t, want, got)
			}
		}
	}
}

// TestFinishUndirectedParallelMatchesSerial pins the edge-id finish of graphs
// built at every worker count — the cursor pass, run on first use — to the
// seed binary-search finish over the serial build, on inputs big enough for
// the parallel builder to run.
func TestFinishUndirectedParallelMatchesSerial(t *testing.T) {
	edges := diffEdges(1<<12, 1<<16, 7)
	want := BuildUndirectedSerial(1<<12, edges)
	for _, p := range []int{1, 2, 4, 8} {
		sameUndirected(t, want, BuildUndirectedThreads(1<<12, edges, p))
	}
}

// undirectSerial is the seed Undirect — expand every arc into both
// orientations, then count/sort/dedup through the serial builder — kept as
// the pinned oracle for the merge-based UndirectThreads.
func undirectSerial(g *Directed) *Undirected {
	edges := make([]Edge, 0, 2*len(g.outAdj))
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(V(u)) {
			if V(u) == v {
				continue
			}
			edges = append(edges, Edge{V(u), v}, Edge{v, V(u)})
		}
	}
	off, adj := buildCSRSerial(g.n, edges, false)
	return &Undirected{n: g.n, off: off, adj: adj}
}

// undirectCases are the differential shapes for UndirectThreads: degenerate
// sizes, isolated vertices, pure in- and out-hubs, fully mutual and fully
// one-way arc sets, and a skewed random graph. The hub, mutual, one-way and
// random shapes exceed minParallelBuild arcs, so the public entry point runs
// them in parallel too.
func undirectCases() map[string]*Directed {
	const hubN = minParallelBuild + 100
	star := func(in bool) []Edge {
		edges := make([]Edge, 0, hubN-1)
		for v := 1; v < hubN; v++ {
			if in {
				edges = append(edges, Edge{V(v), 0})
			} else {
				edges = append(edges, Edge{0, V(v)})
			}
		}
		return edges
	}
	var mutual, oneWay []Edge
	for _, e := range diffEdges(1<<12, 1<<14, 5) {
		mutual = append(mutual, e, Edge{e.V, e.U})
	}
	for _, e := range diffEdges(1<<12, 1<<15, 6) {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		oneWay = append(oneWay, e)
	}
	return map[string]*Directed{
		"empty":    BuildDirectedSerial(0, nil),
		"single":   BuildDirectedSerial(1, nil),
		"isolated": BuildDirectedSerial(5000, diffEdges(300, 2000, 3)),
		"in-hub":   BuildDirectedSerial(hubN, star(true)),
		"out-hub":  BuildDirectedSerial(hubN, star(false)),
		"mutual":   BuildDirectedSerial(1<<12, mutual),
		"one-way":  BuildDirectedSerial(1<<12, oneWay),
		"random":   BuildDirectedSerial(1<<12, diffEdges(1<<12, 1<<16, 11)),
	}
}

// TestUndirectParallelMatchesSerial pins the merge-based Undirect to the
// seed expand-and-build oracle: every field byte-identical, for every worker
// count, both through the public entry point and with the size clamp
// bypassed.
func TestUndirectParallelMatchesSerial(t *testing.T) {
	for name, g := range undirectCases() {
		want := undirectSerial(g)
		for _, p := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				sameUndirected(t, want, UndirectThreads(g, p))
				sameUndirected(t, want, undirect(g, p))
			})
		}
	}
}

// TestUndirectMappedContainer runs the merge over CSR slices aliased onto an
// mmap'd .aqg file rather than the Go heap.
func TestUndirectMappedContainer(t *testing.T) {
	g := BuildDirected(1<<12, diffEdges(1<<12, 1<<16, 12))
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	c, err := LoadContainer(writeTempContainer(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	want := undirectSerial(g)
	for _, p := range []int{1, 2, 4, 8} {
		sameUndirected(t, want, UndirectThreads(c.Directed, p))
	}
}

// TestUndirectAllocBudget pins the removal of the 2|E| edge-list expansion
// and of the eager edge indexes: Undirect may allocate its output (offsets
// and adjacency) plus O(n) scratch, where the expansion would add 8 bytes
// per arc and an eager edge-id index 8 bytes per slot.
func TestUndirectAllocBudget(t *testing.T) {
	n := 1 << 12
	g := BuildDirected(n, diffEdges(n, 1<<17, 13))
	if g.NumArcs() < 1<<16 {
		t.Fatalf("graph too small for the budget to bite: %d arcs", g.NumArcs())
	}
	UndirectThreads(g, 2) // warm the worker pool
	for _, p := range []int{1, 2} {
		var u *Undirected
		alloc := totalAlloc(func() { u = UndirectThreads(g, p) })
		out := uint64(8*(n+1)) + 4*uint64(len(u.adj))
		if budget := out + uint64(64*n) + 64<<10; alloc > budget {
			t.Fatalf("p=%d: Undirect allocated %d bytes for a %d-byte result, budget %d",
				p, alloc, out, budget)
		}
		if u.EdgeIDsBuilt() {
			t.Fatalf("p=%d: Undirect built the edge-id index eagerly", p)
		}
	}
}

// TestTransposeMatchesSerial pins the in-CSR transpose to the serial seed
// builder's reverse build over the differential shapes, at every worker count:
// with the worker cap bypassed (transpose) and applied (transposeCSR), and
// with the int32 counters and, by lowering the overflow guard, the int64 ones.
func TestTransposeMatchesSerial(t *testing.T) {
	old := histInt32Limit
	defer func() { histInt32Limit = old }()
	for _, counters := range []struct {
		name  string
		limit int64
	}{{"int32", old}, {"int64", 4}} {
		histInt32Limit = counters.limit
		for name, g := range undirectCases() {
			for _, p := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", counters.name, name, p), func(t *testing.T) {
					for _, tr := range []func([]int64, []V, int) ([]int64, []V){transpose, transposeCSR} {
						got := &Directed{n: g.n, outOff: g.outOff, outAdj: g.outAdj}
						sameDirected(t, g, got.withIn(tr(g.outOff, g.outAdj, p)))
					}
				})
			}
		}
	}
}

// edgeListText renders lines edges of mixed formatting (comments, blanks,
// extra whitespace, trailing fields) deterministically.
func edgeListText(lines int, seed uint64) []byte {
	r := diffLCG(seed)
	var b bytes.Buffer
	for i := 0; i < lines; i++ {
		switch r.intn(12) {
		case 0:
			b.WriteString("# comment line\n")
		case 1:
			b.WriteString("% also a comment\n")
		case 2:
			b.WriteString("\n")
		case 3:
			b.WriteString("   \t \n")
		case 4:
			fmt.Fprintf(&b, "  %d\t%d   extra fields here\n", r.intn(5000), r.intn(5000))
		default:
			fmt.Fprintf(&b, "%d %d\n", r.intn(5000), r.intn(5000))
		}
	}
	return b.Bytes()
}

// TestParseEdgeListParallelMatchesSerial feeds inputs large enough to split
// into many chunks and requires identical (edges, n) for every thread count.
func TestParseEdgeListParallelMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		data := edgeListText(80_000, seed) // ~600 KB: ~9 chunks at minParseChunk
		wantEdges, wantN, err := ReadEdgeListSerial(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4, 8} {
			edges, n, err := ParseEdgeListBytes(data, p)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			if n != wantN {
				t.Fatalf("p=%d: n: want %d, got %d", p, wantN, n)
			}
			if !reflect.DeepEqual(wantEdges, edges) {
				t.Fatalf("p=%d: edges differ", p)
			}
		}
	}
}

// TestParseEdgeListErrorParity checks malformed-input parity: same error text
// (including the absolute line number) as the serial scanner, with the bad
// line planted in early, middle and late chunks of a multi-chunk input.
func TestParseEdgeListErrorParity(t *testing.T) {
	badLines := []string{
		"0",                      // too few fields
		"a b",                    // bad source
		"0 x",                    // bad target
		"-1 2",                   // out of range
		"4294967295 0",           // NoVertex is reserved
		"1 99999999999999999999", // target overflows int64
	}
	filler := strings.Repeat("1 2\n3 4\n", 40_000) // ~320 KB of valid lines
	for _, bad := range badLines {
		for _, at := range []float64{0, 0.4, 0.9} {
			pos := int(at * float64(len(filler)))
			for pos < len(filler) && filler[pos] != '\n' {
				pos++
			}
			data := filler[:pos] + "\n" + bad + "\n" + filler[pos:]
			_, _, wantErr := ReadEdgeListSerial(strings.NewReader(data))
			if wantErr == nil {
				t.Fatalf("serial accepted %q", bad)
			}
			for _, p := range []int{1, 2, 4, 8} {
				_, _, err := ParseEdgeListBytes([]byte(data), p)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("bad=%q at=%.1f p=%d: want error %q, got %v", bad, at, p, wantErr, err)
				}
			}
		}
	}
}

// TestParseEdgeListLongLineParity pins the bufio.ErrTooLong boundary: the
// serial scanner fails once a line reaches its 1 MiB buffer; the parallel
// parser must fail identically, and accept one byte less.
func TestParseEdgeListLongLineParity(t *testing.T) {
	okLine := "# " + strings.Repeat("x", maxEdgeListLine-3) // 1<<20 - 1 bytes
	tooLong := okLine + "x"
	for name, data := range map[string]string{
		"ok":      okLine + "\n1 2\n",
		"toolong": tooLong + "\n1 2\n",
	} {
		wantEdges, wantN, wantErr := ReadEdgeListSerial(strings.NewReader(data))
		for _, p := range []int{1, 4} {
			edges, n, err := ParseEdgeListBytes([]byte(data), p)
			switch {
			case wantErr == nil:
				if err != nil {
					t.Fatalf("%s p=%d: unexpected error %v", name, p, err)
				}
				if n != wantN || !reflect.DeepEqual(wantEdges, edges) {
					t.Fatalf("%s p=%d: result mismatch", name, p)
				}
			default:
				if !errors.Is(wantErr, bufio.ErrTooLong) {
					t.Fatalf("%s: serial error %v, want ErrTooLong", name, wantErr)
				}
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("%s p=%d: want ErrTooLong, got %v", name, p, err)
				}
			}
		}
	}
}

// fastPathFallbackLines are lines on which the parser's byte-level fast path
// must either defer to the seed rules or decide exactly as they do: signed
// ids, Unicode whitespace, id-width and id-range boundaries, malformed fields,
// odd bytes and indented comments.
var fastPathFallbackLines = []string{
	"+1 2", "-1 2", "1 +2", "1 -2",
	"1\u00a02", "\u00851 2", "1 2\u0085", "1\u20002", "\u00a0# comment",
	"12345678901 2", "1 12345678901", "00000000001 2", "9999999999 1",
	"4294967294 4294967294", "4294967295 0", "0 4294967295",
	"1 2x", "1x 2", "1,2", "1", "1 ", "1 #2",
	"1\x002", "\x00", "1 2\x00", "\r", "1 2\r", "\r1\r2\r", "007 0008",
	"  # indented comment", "\t% indented", "\v\f1 2", " \t ",
}

// TestParseEdgeListFastPathFallback checks every fastPathFallbackLines entry
// against the serial seed parser — edges, vertex count and error text,
// including the line number — inside a one-chunk input, as an unterminated
// last line, and in the middle of an input large enough that every worker
// count splits it into chunks.
func TestParseEdgeListFastPathFallback(t *testing.T) {
	filler := strings.Repeat("1 2\n3 4\n", 70_000) // 560 KB > 8×minParseChunk
	half := len(filler) / 2                        // a line boundary
	for _, line := range fastPathFallbackLines {
		for shape, data := range map[string]string{
			"one-chunk":   "0 1\n" + line + "\n5 6\n",
			"last-line":   "0 1\n" + line,
			"multi-chunk": filler[:half] + line + "\n" + filler[half:],
		} {
			wantEdges, wantN, wantErr := ReadEdgeListSerial(strings.NewReader(data))
			for _, p := range []int{1, 2, 8} {
				edges, n, err := ParseEdgeListBytes([]byte(data), p)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%q %s p=%d: error: want %v, got %v", line, shape, p, wantErr, err)
				}
				if n != wantN || !reflect.DeepEqual(wantEdges, edges) {
					t.Fatalf("%q %s p=%d: result differs from the serial parser", line, shape, p)
				}
			}
		}
	}
}

// TestParseEdgeListAllocs pins the allocation-free line parse: the parser's
// allocation count must not grow with the line count, where a per-line string
// conversion and field split would add two or more allocations a line.
func TestParseEdgeListAllocs(t *testing.T) {
	small, large := edgeListText(50_000, 5), edgeListText(200_000, 5)
	for _, p := range []int{1, 2} {
		ParseEdgeListBytes(large, p) // warm the worker pool
		a := testing.AllocsPerRun(3, func() { ParseEdgeListBytes(small, p) })
		b := testing.AllocsPerRun(3, func() { ParseEdgeListBytes(large, p) })
		if b > a+16 {
			t.Fatalf("p=%d: %.0f allocations for 50k lines, %.0f for 200k", p, a, b)
		}
	}
}

// TestReadEdgeListUsesParallelParser is a tripwire: the public entry point
// must agree with the serial reference on a mixed-format input.
func TestReadEdgeListUsesParallelParser(t *testing.T) {
	data := edgeListText(5_000, 99)
	wantEdges, wantN, err := ReadEdgeListSerial(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	edges, n, err := ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n != wantN || !reflect.DeepEqual(wantEdges, edges) {
		t.Fatal("ReadEdgeList diverges from ReadEdgeListSerial")
	}
}
