package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList hammers the text parser: it must never panic, and whenever
// it accepts input, the resulting edge list must build a valid graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n3 4 junk\n")
	f.Add("")
	f.Add("9999999999999999999999 1\n")
	f.Add("-1 5\n")
	f.Add("0\t1\r\n")
	f.Add("00000000000000000000004000000000 0\n") // huge-but-valid id: parse, don't materialize
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range edges {
			if int64(e.U) >= int64(n) || int64(e.V) >= int64(n) {
				t.Fatalf("accepted edge %v out of range n=%d", e, n)
			}
		}
		if n > 1<<20 {
			// Sparse ids up to ~2^32 are legitimate input; materializing the
			// CSR for them is the caller's memory decision, not a parser
			// property worth fuzzing.
			return
		}
		g := BuildDirected(n, edges)
		if g.NumVertices() != n {
			t.Fatalf("built graph has %d vertices, want %d", g.NumVertices(), n)
		}
	})
}

// FuzzReadEdgeListParity fuzzes the chunk-parallel parser against the serial
// seed parser: identical edges, vertex count, and error text (the full
// accepted/rejected behavior) on every input, at several thread counts.
func FuzzReadEdgeListParity(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# c\n\n  5 6 junk\n% c\n7\t8\n")
	f.Add("")
	f.Add("bad line\n")
	f.Add("1 2\n-3 4\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("0 1\r\n2 3\r\n")
	for _, line := range fastPathFallbackLines {
		f.Add("0 1\n" + line + "\n2 3\n")
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<21 {
			return
		}
		wantEdges, wantN, wantErr := ReadEdgeListSerial(strings.NewReader(input))
		for _, p := range []int{1, 3, 8} {
			edges, n, err := ParseEdgeListBytes([]byte(input), p)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("p=%d: error presence mismatch: serial=%v parallel=%v", p, wantErr, err)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("p=%d: error text: serial=%q parallel=%q", p, wantErr, err)
				}
				continue
			}
			if n != wantN || len(edges) != len(wantEdges) {
				t.Fatalf("p=%d: shape mismatch", p)
			}
			for i := range edges {
				if edges[i] != wantEdges[i] {
					t.Fatalf("p=%d: edge %d: serial=%v parallel=%v", p, i, wantEdges[i], edges[i])
				}
			}
		}
	})
}

// FuzzParallelBuildParity fuzzes the parallel CSR builder and its in-CSR
// transpose — built lazily on first use, and on p workers — against the
// serial seed builder, and the merge-based Undirect against the
// expand-and-build oracle, on small adversarial edge lists (the size clamp
// and the transpose's worker cap are bypassed by driving buildCSR,
// transpose and undirect directly).
func FuzzParallelBuildParity(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 2, 3, 0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 64
		}
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{V(int(data[i]) % n), V(int(data[i+1]) % n)})
		}
		wantD := BuildDirectedSerial(n, edges)
		wantU := BuildUndirectedSerial(n, edges)
		wantUD := undirectSerial(wantD)
		for _, p := range []int{2, 4} {
			outOff, outAdj := buildCSR(n, edges, p)
			sameDirected(t, wantD, &Directed{n: n, outOff: outOff, outAdj: outAdj})
			sameDirected(t, wantD, (&Directed{n: n, outOff: outOff, outAdj: outAdj}).withIn(transpose(outOff, outAdj, p)))
			sym := make([]Edge, 0, 2*len(edges))
			for _, e := range edges {
				sym = append(sym, e, Edge{e.V, e.U})
			}
			off, adj := buildCSR(n, sym, p)
			sameUndirected(t, wantU, &Undirected{n: n, off: off, adj: adj})
			sameUndirected(t, wantUD, UndirectThreads(wantD, p))
			sameUndirected(t, wantUD, undirect(wantD, p))
		}
	})
}

// FuzzContainerRoundTrip hammers the .aqg v2 container reader with mutated
// container bytes: it must never panic, and whenever it accepts input the
// loaded graph must re-serialize to the exact bytes it was read from (the
// container is canonical, so accept implies byte-identity). Every input also
// goes through LoadContainer from a file, validated in windows of a few
// vertices: it must accept exactly what ReadContainer accepts, with equal
// CSRs.
func FuzzContainerRoundTrip(f *testing.F) {
	var dir, und bytes.Buffer
	if err := WriteContainer(&dir, BuildDirected(5, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}})); err != nil {
		f.Fatal(err)
	}
	if err := WriteUndirectedContainer(&und, BuildUndirected(4, []Edge{{0, 1}, {1, 2}, {2, 3}})); err != nil {
		f.Fatal(err)
	}
	f.Add(dir.Bytes())
	f.Add(und.Bytes())
	f.Add(dir.Bytes()[:aqgHeaderSize])
	f.Add([]byte{})
	f.Add([]byte("AQG2\x1aCSR then trailing junk instead of a header"))
	window := ingestWindow
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		c, err := ReadContainer(bytes.NewReader(data))
		ingestWindow = 16
		mc, merr := LoadContainer(writeTempContainer(t, data))
		ingestWindow = window
		if (err == nil) != (merr == nil) {
			t.Fatalf("ReadContainer error %v, LoadContainer error %v", err, merr)
		}
		if err != nil {
			return
		}
		defer mc.Release()
		var again bytes.Buffer
		if c.Undirected != nil {
			sameUndirected(t, c.Undirected, mc.Undirected)
			err = WriteUndirectedContainer(&again, c.Undirected)
		} else {
			sameDirected(t, c.Directed, mc.Directed)
			// Undirect merges the out- and in-CSR; an accepted pair must
			// be consistent enough for it to finish without panicking.
			Undirect(c.Directed)
			err = WriteContainer(&again, c.Directed)
		}
		if err != nil {
			t.Fatalf("accepted container failed to re-serialize: %v", err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Fatalf("accepted container is not canonical: %d bytes in, %d bytes out", len(data), again.Len())
		}
	})
}

// FuzzReadBinary feeds arbitrary bytes to the loaders the way the command
// loaders dispatch them: a head BinaryFormat reports as .aqg to
// ReadContainer, anything else to the edge-list parser. Neither may panic,
// and bytes that open with the retired v1 binary magic must never load. The
// first seed and the checked-in corpus are v1 dumps.
func FuzzReadBinary(f *testing.F) {
	f.Add(legacyV1Dump(f, BuildDirected(3, []Edge{{0, 1}, {1, 2}})))
	f.Add([]byte{})
	f.Add([]byte("garbage data that is not a graph"))
	var aqg bytes.Buffer
	if err := WriteContainer(&aqg, BuildDirected(3, []Edge{{0, 1}, {1, 2}})); err != nil {
		f.Fatal(err)
	}
	f.Add(aqg.Bytes())
	v1Magic := []byte("CUQA\x00\x00\x00\x00") // 0x41515543, little-endian int64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		var err error
		if BinaryFormat(data) == 2 {
			_, err = ReadContainer(bytes.NewReader(data))
		} else {
			_, _, err = ParseEdgeListBytes(data, 2)
		}
		if err == nil && bytes.HasPrefix(data, v1Magic) {
			t.Fatal("a v1 dump loaded")
		}
	})
}
