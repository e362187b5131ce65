package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// testEdges deterministically generates a random edge list with the given
// shape (duplicates and self-loops included, as the builders expect).
func testEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
	}
	return edges
}

func writeTempContainer(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.aqg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestContainerRoundTripDirected checks write→read and write→mmap parity for
// a directed graph: both loaders must reproduce the exact CSR arrays, proven
// byte-level by re-serialization.
func TestContainerRoundTripDirected(t *testing.T) {
	g := BuildDirected(200, testEdges(200, 3000, 1))
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}

	c, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Undirected != nil || c.Directed == nil {
		t.Fatal("directed container loaded as undirected")
	}
	sameDirected(t, g, c.Directed)
	var again bytes.Buffer
	if err := WriteContainer(&again, c.Directed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("reader path: re-serialization differs byte-for-byte")
	}

	path := writeTempContainer(t, buf.Bytes())
	mc, err := LoadContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Release()
	if mc.Directed == nil {
		t.Fatal("LoadContainer returned no directed graph")
	}
	sameDirected(t, g, mc.Directed)
	again.Reset()
	if err := WriteContainer(&again, mc.Directed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("mmap path: re-serialization differs byte-for-byte")
	}
}

// TestContainerRoundTripUndirected is the same parity check for the
// undirected container, including the persisted mate/eid indexes; the writer
// must also emit exactly what the seed binary-search finish would have.
func TestContainerRoundTripUndirected(t *testing.T) {
	g := BuildUndirected(150, testEdges(150, 2500, 2))
	var buf bytes.Buffer
	if err := WriteUndirectedContainer(&buf, g); err != nil {
		t.Fatal(err)
	}

	c, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Directed != nil || c.Undirected == nil {
		t.Fatal("undirected container loaded as directed")
	}
	sameUndirected(t, g, c.Undirected)

	// The seed writer persisted the binary-search finish's indexes; the
	// cursor-derived ones must serialize to the same bytes.
	seedMate, seedEid := seedEdgeIndex(g.n, g.off, g.adj)
	h := &aqgHeader{flags: aqgFlagUndirected, n: int64(g.n), slots: int64(len(g.adj)), edges: g.NumEdges()}
	h.layout()
	var seed bytes.Buffer
	cw := newContainerWriter(&seed, h)
	cw.int64Section(0, g.off)
	cw.vSection(1, g.adj)
	cw.int64Section(2, seedMate)
	cw.int64Section(3, seedEid)
	if err := cw.finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seed.Bytes(), buf.Bytes()) {
		t.Fatal("writer output differs from the seed-index serialization")
	}

	path := writeTempContainer(t, buf.Bytes())
	mc, err := LoadContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Release()
	sameUndirected(t, g, mc.Undirected)
	var again bytes.Buffer
	if err := WriteUndirectedContainer(&again, mc.Undirected); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("mmap path: re-serialization differs byte-for-byte")
	}
}

// TestContainerRelease checks Release is idempotent and unmaps cleanly.
func TestContainerRelease(t *testing.T) {
	g := BuildDirected(50, testEdges(50, 400, 3))
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	c, err := LoadContainer(writeTempContainer(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if c.Directed != nil || c.Undirected != nil || c.Mapped() {
		t.Fatal("Release left graph pointers or mapping behind")
	}
	if err := c.Release(); err != nil {
		t.Fatal("second Release must be a no-op, got", err)
	}
}

// TestContainerCorruptRejected is the corrupt-header table: every targeted
// mutation of a valid container must be rejected (never panic, never load)
// by both the streaming reader and the mmap loader.
func TestContainerCorruptRejected(t *testing.T) {
	dg := BuildDirected(64, testEdges(64, 600, 4))
	var dbuf bytes.Buffer
	if err := WriteContainer(&dbuf, dg); err != nil {
		t.Fatal(err)
	}
	ug := BuildUndirected(64, testEdges(64, 600, 5))
	var ubuf bytes.Buffer
	if err := WriteUndirectedContainer(&ubuf, ug); err != nil {
		t.Fatal(err)
	}
	dh, err := parseAqgHeader(dbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	uh, err := parseAqgHeader(ubuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	umate, ueid := seedEdgeIndex(ug.n, ug.off, ug.adj)
	uEidAt := func(s int64) int64 { return uh.sec[3].off + 8*s }

	put64 := func(b []byte, at int64, v uint64) []byte {
		mut := bytes.Clone(b)
		binary.LittleEndian.PutUint64(mut[at:], v)
		return mut
	}
	put32 := func(b []byte, at int64, v uint32) []byte {
		mut := bytes.Clone(b)
		binary.LittleEndian.PutUint32(mut[at:], v)
		return mut
	}

	// Patch helpers addressing array entries through the parsed section table.
	dOffAt := func(i int64) int64 { return dh.sec[0].off + 8*i }
	dAdjAt := func(i int64) int64 { return dh.sec[1].off + 4*i }
	// A vertex with degree ≥2 for the unsorted-segment case.
	swapVictim := int64(-1)
	for u := 0; u < dg.NumVertices(); u++ {
		if dg.OutDegree(V(u)) >= 2 {
			swapVictim = dg.outOff[u]
			break
		}
	}
	if swapVictim < 0 {
		t.Fatal("test graph has no vertex of degree ≥2")
	}
	// A slot whose owner we know, to forge a self-loop.
	loopOwner := V(0)
	loopSlot := int64(-1)
	for u := 0; u < dg.NumVertices(); u++ {
		if dg.OutDegree(V(u)) > 0 {
			loopOwner, loopSlot = V(u), dg.outOff[u]
			break
		}
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", dbuf.Bytes()[:aqgHeaderSize-1]},
		{"truncated mid-section", dbuf.Bytes()[:dh.sec[1].off+10]},
		{"truncated last byte", dbuf.Bytes()[:dbuf.Len()-1]},
		{"bad magic", append([]byte("NOTAQG2\x00"), dbuf.Bytes()[8:]...)},
		{"bad version", put32(dbuf.Bytes(), 8, 3)},
		{"unknown flags", put32(dbuf.Bytes(), 12, 0x80)},
		{"negative n", put64(dbuf.Bytes(), 16, ^uint64(0))},
		{"absurd n", put64(dbuf.Bytes(), 16, uint64(NoVertex))},
		{"edges != slots (directed)", put64(dbuf.Bytes(), 32, uint64(dg.NumArcs()+1))},
		{"slots != 2*edges (undirected)", put64(ubuf.Bytes(), 24, uint64(len(ug.adj)-1))},
		{"section offset misaligned", put64(dbuf.Bytes(), 48, aqgHeaderSize+1)},
		{"section size wrong", put64(dbuf.Bytes(), 48+8, uint64(dh.sec[0].size+8))},
		{"sections overlapping", put64(dbuf.Bytes(), 48+16, uint64(dh.sec[0].off))},
		{"offsets start nonzero", put64(dbuf.Bytes(), dOffAt(0), 8)},
		{"offsets non-monotone", put64(dbuf.Bytes(), dOffAt(1), ^uint64(0))},
		{"offsets overshoot slots", put64(dbuf.Bytes(), dOffAt(int64(dg.n)), uint64(dg.NumArcs()+1))},
		{"target out of range", put32(dbuf.Bytes(), dAdjAt(0), uint32(dg.n))},
		{"self loop", put32(dbuf.Bytes(), dAdjAt(loopSlot), uint32(loopOwner))},
		{"unsorted segment", func() []byte {
			mut := bytes.Clone(dbuf.Bytes())
			a, b := dAdjAt(swapVictim), dAdjAt(swapVictim+1)
			for i := int64(0); i < 4; i++ {
				mut[a+i], mut[b+i] = mut[b+i], mut[a+i]
			}
			return mut
		}()},
		// Both CSRs canonical, but the in-sections repeat the out-sections:
		// an asymmetric graph's out-CSR is not its own transpose.
		{"in-CSR not the transpose", func() []byte {
			mut := bytes.Clone(dbuf.Bytes())
			for i := 0; i < 2; i++ {
				src, dst := dh.sec[i], dh.sec[i+2]
				copy(mut[dst.off:dst.off+dst.size], mut[src.off:src.off+src.size])
			}
			return mut
		}()},
		{"mate out of range", put64(ubuf.Bytes(), uh.sec[2].off, uint64(len(ug.adj)))},
		{"mate not involutive", put64(ubuf.Bytes(), uh.sec[2].off, uint64(umate[0]+1))},
		{"eid out of range", put64(ubuf.Bytes(), uEidAt(0), uint64(ug.NumEdges()))},
		{"eid mates disagree", put64(ubuf.Bytes(), uEidAt(umate[0]), uint64(ueid[umate[0]])+1)},
		// Both slots of edge 1 relabeled to id 0: in range and agreeing
		// across mates, yet two edges now share an id.
		{"two edges share an id", func() []byte {
			s := slices.Index(ueid, 1)
			return put64(put64(ubuf.Bytes(), uEidAt(int64(s)), 0), uEidAt(umate[s]), 0)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadContainer(bytes.NewReader(tc.data)); err == nil {
				t.Error("ReadContainer accepted corrupt input")
			}
			if c, err := LoadContainer(writeTempContainer(t, tc.data)); err == nil {
				c.Release()
				t.Error("LoadContainer accepted corrupt input")
			}
		})
	}

	// Sanity: the unmutated buffers still load, so the cases above failed for
	// the injected reason and not a broken fixture.
	if _, err := ReadContainer(bytes.NewReader(dbuf.Bytes())); err != nil {
		t.Fatalf("pristine directed container rejected: %v", err)
	}
	if _, err := ReadContainer(bytes.NewReader(ubuf.Bytes())); err != nil {
		t.Fatalf("pristine undirected container rejected: %v", err)
	}
}

// totalAlloc runs f once and returns the heap bytes it allocated.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadContainerAllocO1 asserts the tentpole property: a warm mmap load
// performs zero graph-rebuild work, allocating O(1) heap beyond the mapping
// regardless of graph size. The budget is a small constant while the graph
// itself is megabytes.
func TestLoadContainerAllocO1(t *testing.T) {
	g := BuildDirected(1<<15, testEdges(1<<15, 1<<19, 6)) // ~0.5M arcs, ~5 MB of CSR
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := writeTempContainer(t, buf.Bytes())

	// Warm up: first load initializes the worker pool and the page cache.
	warm, err := LoadContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := warm.Mapped()
	warm.Release()
	if !mapped {
		t.Skip("mmap path unavailable on this platform; O(1)-alloc property only holds when mapped")
	}

	var c *Container
	alloc := totalAlloc(func() {
		c, err = LoadContainer(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	const budget = 256 << 10 // constant; the graph's CSR alone is ~20× this
	if alloc > budget {
		t.Fatalf("LoadContainer allocated %d bytes, budget %d (graph rebuild work leaked back in?)", alloc, budget)
	}
}

// TestDegreeHistogramOverflowGuard forces the int64 histogram fallback (by
// shrinking the guard limit) and checks the parallel builders still produce
// output identical to the serial baselines.
func TestDegreeHistogramOverflowGuard(t *testing.T) {
	old := histInt32Limit
	histInt32Limit = 4 // any parallel build now takes the int64 path
	defer func() { histInt32Limit = old }()

	n := 300
	edges := testEdges(n, 40000, 8) // above minParallelBuild so the guard engages
	if histBlockMax(len(edges), 4) < histInt32Limit {
		t.Fatal("fixture too small: guard would not trigger")
	}
	sameDirected(t, BuildDirectedSerial(n, edges), BuildDirectedThreads(n, edges, 4))
	sameUndirected(t, BuildUndirectedSerial(n, edges), BuildUndirectedThreads(n, edges, 4))
}

// TestBinaryFormatSniff pins the magic-based auto-detection used by the
// command loaders.
func TestBinaryFormatSniff(t *testing.T) {
	g := BuildDirected(4, []Edge{{0, 1}, {1, 2}})
	var v2 bytes.Buffer
	if err := WriteContainer(&v2, g); err != nil {
		t.Fatal(err)
	}
	if got := BinaryFormat(v2.Bytes()); got != 2 {
		t.Errorf("v2 head sniffed as %d", got)
	}
	for _, text := range []string{"", "0 1\n", "# comment\n", "AQG2 but not really"} {
		if got := BinaryFormat([]byte(text)); got != 0 {
			t.Errorf("text %q sniffed as %d", text, got)
		}
	}
}

// legacyV1Dump is g in the retired v1 binary layout: the "AQUC" magic, the
// vertex and arc counts, then the out-CSR, all little-endian int64 but the
// uint32 targets. No loader reads it any more.
func legacyV1Dump(t testing.TB, g *Directed) []byte {
	var buf bytes.Buffer
	off, adj := g.OutCSR()
	for _, section := range []any{[]int64{0x41515543, int64(g.NumVertices()), int64(len(adj))}, off, adj} {
		if err := binary.Write(&buf, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestBinaryRejectsGarbage: the binary loaders refuse bytes that are no .aqg
// container, garbage or a v1 dump, and the format sniff the command loaders
// dispatch on sends neither to them.
func TestBinaryRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"garbage": []byte("not a graph at all........."),
		"v1":      legacyV1Dump(t, BuildDirected(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {5, 0}, {3, 5}, {4, 4}})),
	} {
		if got := BinaryFormat(data); got != 0 {
			t.Errorf("%s sniffed as %d", name, got)
		}
		if _, err := ReadContainer(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadContainer accepted %s", name)
		}
		if c, err := LoadContainer(writeTempContainer(t, data)); err == nil {
			c.Release()
			t.Errorf("LoadContainer accepted %s", name)
		}
	}
}

// TestReadBinaryAllocBudget bounds the heap the stream reader of the binary
// format allocates: ReadContainer reads each section once, into the slice the
// graph keeps, so a directed container costs its two CSRs and little more. A
// reader that staged the file or rebuilt the graph from an edge list would
// blow the 1.5× budget.
func TestReadBinaryAllocBudget(t *testing.T) {
	n, m := 1<<15, 1<<19
	g := BuildDirected(n, testEdges(n, m, 7))
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Final footprint: two offset arrays, two adjacency arrays.
	csrBytes := uint64(16*(n+1)) + uint64(8*g.NumArcs())

	var c *Container
	var err error
	alloc := totalAlloc(func() {
		c, err = ReadContainer(bytes.NewReader(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	sameDirected(t, g, c.Directed)
	if budget := csrBytes + csrBytes/2; alloc > budget {
		t.Fatalf("ReadContainer allocated %d bytes for a %d-byte CSR (%.1fx), budget %d",
			alloc, csrBytes, float64(alloc)/float64(csrBytes), budget)
	}
}

// TestReadContainerHeaderOnlyAllocBudget feeds the stream reader a bare,
// valid header that claims 2^24−1 vertices and no section bytes: it must
// fail "truncated" having allocated under 1 MiB, as the slices grow with the
// bytes delivered rather than with the header's claim.
func TestReadContainerHeaderOnlyAllocBudget(t *testing.T) {
	h := &aqgHeader{n: 1<<24 - 1}
	h.layout()
	var buf bytes.Buffer
	if err := newContainerWriter(&buf, h).bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var err error
	alloc := totalAlloc(func() { _, err = ReadContainer(bytes.NewReader(buf.Bytes())) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("header-only container: err = %v, want a truncated section", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("header-only container: ReadContainer allocated %d bytes, want under 1 MiB", alloc)
	}
}

// withWindow shrinks the validation window to bytes for the rest of the test.
func withWindow(t testing.TB, bytes int) {
	old := ingestWindow
	ingestWindow = bytes
	t.Cleanup(func() { ingestWindow = old })
}

// TestContainerCorruptRejectedInWindows reruns the corrupt-input table with
// windows of a few vertices, so most mutations land away from the first
// window and many rows are windows of their own.
func TestContainerCorruptRejectedInWindows(t *testing.T) {
	withWindow(t, 32)
	TestContainerCorruptRejected(t)
}

// TestContainerWindowEdgesRejected places defects at window edges and checks
// that both loaders reject each with the message one window spanning the
// whole graph gives. Every vertex u of the fixture has arcs to u+1..u+3
// (mod n), so a 32-byte window holds two vertices (8 arc slots fit two rows
// of 3) and starts at every even vertex.
func TestContainerWindowEdgesRejected(t *testing.T) {
	const n, d = 64, 3
	var edges []Edge
	for u := 0; u < n; u++ {
		for k := 1; k <= d; k++ {
			edges = append(edges, Edge{V(u), V((u + k) % n)})
		}
	}
	g := BuildDirected(n, edges)
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := parseAqgHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	inOff, inAdj := g.InCSR()
	offAt := func(sec int, i int64) int64 { return h.sec[sec].off + 8*i }
	adjAt := func(sec int, i int64) int64 { return h.sec[sec].off + 4*i }
	put64s := func(at int64, vs ...uint64) []byte {
		mut := bytes.Clone(buf.Bytes())
		for i, v := range vs {
			binary.LittleEndian.PutUint64(mut[at+8*int64(i):], v)
		}
		return mut
	}
	put32s := func(at int64, vs ...uint32) []byte {
		mut := bytes.Clone(buf.Bytes())
		for i, v := range vs {
			binary.LittleEndian.PutUint32(mut[at+4*int64(i):], v)
		}
		return mut
	}
	const first = 20 // a window's first vertex
	last := g.outOff[n-1]
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"offset above its successor at a window's first vertex", "out offsets not monotone",
			put64s(offAt(0, first), uint64(g.outOff[first+1]+1))},
		{"offset shifted at a window's first vertex", "out adjacency segment not strictly increasing",
			put64s(offAt(0, first), uint64(g.outOff[first]+1))},
		{"in-offset above its successor at a window's first vertex", "in offsets not monotone",
			put64s(offAt(2, first), uint64(inOff[first+1]+1))},
		// Far beyond the first window's checked offsets; a boundary
		// chosen from unchecked offsets would slice a row backwards.
		{"offset dropping to 0 beyond the first window", "out offsets not monotone",
			put64s(offAt(0, n/2+1), 0)},
		// Monotone among themselves, so only their bound rejects them
		// before a window reaches their rows.
		{"offsets past the adjacency from a window's first vertex on", "out offsets not monotone",
			put64s(offAt(0, first), n*d+1, n*d+1, n*d+1, n*d+1, n*d+1)},
		{"unsorted row in the last window", "out adjacency segment not strictly increasing",
			put32s(adjAt(1, last), uint32(g.outAdj[last+1]), uint32(g.outAdj[last]))},
		{"target out of range in the last window", "out adjacency target out of range",
			put32s(adjAt(1, last+d-1), n)},
		// Vertex first's in-row lists first-3..first-1; listing first-4
		// instead keeps it canonical but is an arc the out-CSR lacks.
		{"transpose mismatch confined to one window", "in-CSR is not the transpose of the out-CSR",
			put32s(adjAt(3, inOff[first]), uint32(inAdj[inOff[first]]-1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(map[string]string)
			for _, w := range []int{ingestWindow, 32} {
				withWindow(t, w)
				if _, err := ReadContainer(bytes.NewReader(tc.data)); err == nil {
					t.Fatalf("ReadContainer accepted corrupt input (window %d)", w)
				} else {
					errs[err.Error()] = "ReadContainer"
				}
				c, err := LoadContainer(writeTempContainer(t, tc.data))
				if err == nil {
					c.Release()
					t.Fatalf("LoadContainer accepted corrupt input (window %d)", w)
				}
				errs[err.Error()] = "LoadContainer"
			}
			if len(errs) != 1 {
				t.Fatalf("window size or loader changed the message: %v", errs)
			}
			for msg := range errs {
				if msg != "graph: container "+tc.want {
					t.Fatalf("got %q, want %q", msg, tc.want)
				}
			}
		})
	}
	for _, w := range []int{ingestWindow, 32} {
		withWindow(t, w)
		if _, err := ReadContainer(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("pristine container rejected (window %d): %v", w, err)
		}
	}
}
