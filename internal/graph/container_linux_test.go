package graph

import (
	"bytes"
	"testing"
)

// TestLoadContainerLeavesMappingCold checks what a load leaves resident: of
// a container over 1M arcs, at most the header page plus two windows once
// LoadContainer returns, and about the in-CSR more after a scan of InCSR,
// which faults its pages back in.
func TestLoadContainerLeavesMappingCold(t *testing.T) {
	const n = 1 << 17
	g := BuildDirected(n, testEdges(n, 1<<21+1<<18, 9))
	if g.NumArcs() < 1<<20 {
		t.Fatalf("fixture has %d arcs, want at least 1M", g.NumArcs())
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	c, err := LoadContainer(writeTempContainer(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	cold, ok := c.Resident()
	if !ok {
		t.Skip("the mapping's resident size is not reported here")
	}
	if budget := int64(aqgHeaderSize + 2*ingestWindow); cold > budget {
		t.Fatalf("%d of %d container bytes resident after the load, budget %d", cold, buf.Len(), budget)
	}
	if !c.Directed.InBuilt() {
		t.Fatal("a loaded graph must hold its in-CSR as built")
	}
	inOff, inAdj := c.Directed.InCSR()
	var sum int64
	for _, o := range inOff {
		sum += o
	}
	for _, v := range inAdj {
		sum += int64(v)
	}
	warm, _ := c.Resident()
	// A read fault maps a whole page-cache folio, which on a kernel with
	// large folios can be a 2 MiB block, so either end of the in-CSR may
	// bring in up to that much of its neighbours.
	const folio = 2 << 20
	inBytes := int64(8*len(inOff) + 4*len(inAdj))
	if grew := warm - cold; grew < inBytes || grew > inBytes+2*folio {
		t.Fatalf("scanning the in-CSR (%d of %d bytes; checksum %d) grew the mapping's resident set by %d bytes",
			inBytes, buf.Len(), sum, grew)
	}
}
