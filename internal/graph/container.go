package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"sync/atomic"
	"unsafe"

	"aquila/internal/parallel"
)

// This file implements the .aqg v2 binary graph container: a versioned,
// page-aligned, mmap-able CSR snapshot that loads with zero parse and zero
// rebuild work. Unlike the legacy v1 format (WriteBinary/ReadBinary), which
// stored only the out-CSR and forced every loader to reconstruct the rest, a
// v2 container persists everything a graph carries — the in-CSR for directed
// graphs, the mate-slot and edge-id indexes for undirected ones — so
// LoadContainer can alias the graph's slices directly onto the file mapping
// after one validation pass over every section. Both undirected indexes are
// the canonical ones the cursor pass (walkEdges) derives from the CSR; the
// loader checks them and keeps only the edge ids.
//
// Layout (all fixed-width fields little-endian):
//
//	[0,8)      magic "AQG2\x1aCSR"
//	[8,12)     version uint32 (== 2)
//	[12,16)    flags uint32 (bit 0: undirected)
//	[16,24)    n int64 — vertex count
//	[24,32)    slots int64 — adjacency length (arcs if directed, 2·edges if undirected)
//	[32,40)    edges int64 — undirected edge count (== slots for directed graphs)
//	[40,48)    reserved, zero
//	[48,112)   section table: 4 × {byte offset int64, byte length int64}
//	[112,4096) zero padding — the header occupies one 4 KiB page, so the
//	           first section starts page-aligned under mmap
//	[4096,…)   sections, each starting 8-byte aligned, in table order
//
// Directed sections:   0 out-offsets ((n+1)×8), 1 out-adjacency (slots×4),
//	                    2 in-offsets ((n+1)×8),  3 in-adjacency (slots×4).
// Undirected sections: 0 offsets ((n+1)×8), 1 adjacency (slots×4),
//	                    2 mate slots (slots×8), 3 edge ids (slots×8).
//
// The section table is redundant with the canonical layout (sections abut,
// modulo 8-byte alignment pad) and is validated against it; it exists so
// future versions can add sections without breaking old readers' bounds
// checks.

const (
	aqgMagic      = "AQG2\x1aCSR"
	aqgVersion    = 2
	aqgHeaderSize = 4096
	aqgSections   = 4

	aqgFlagUndirected = 1 << 0
)

// hostLittleEndian reports whether this machine stores integers in the
// container's on-disk byte order, which is what lets the mmap path alias
// typed slices onto the raw mapping. Big-endian hosts take the streaming
// decoder instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Container is a graph loaded from an .aqg container together with the
// resource backing its slices. Exactly one of Directed/Undirected is non-nil.
// When the container was mmap'd, the graph's CSR slices alias the mapping:
// call Release once the graph is no longer referenced (e.g. on daemon
// shutdown) to unmap it. Using the graph after Release is a use-after-free.
type Container struct {
	Directed   *Directed
	Undirected *Undirected
	mapping    []byte
}

// Mapped reports whether the container's slices alias an mmap'd file (true)
// or live on the Go heap via the streaming reader (false).
func (c *Container) Mapped() bool { return c.mapping != nil }

// Resident reports how many bytes of the container's mapping the process
// holds in memory. ok is false for a heap-backed container, and on hosts
// that do not report it (it reads /proc/self/smaps on Linux).
func (c *Container) Resident() (size int64, ok bool) {
	if c.mapping == nil {
		return 0, false
	}
	return mappingRSS(c.mapping)
}

// Release unmaps the file backing the container's slices, if any, and drops
// the graph pointers. The graphs obtained from this container must not be
// used afterwards. Release is idempotent; heap-backed containers release
// trivially.
func (c *Container) Release() error {
	var err error
	if c.mapping != nil {
		err = munmapFile(c.mapping)
		c.mapping = nil
	}
	c.Directed, c.Undirected = nil, nil
	return err
}

// aqgSection is one section-table entry: a byte extent within the file.
type aqgSection struct {
	off, size int64
}

// aqgHeader is the parsed fixed header of a v2 container.
type aqgHeader struct {
	flags uint32
	n     int64 // vertices
	slots int64 // adjacency slots
	edges int64 // undirected edges (== slots when directed)
	sec   [aqgSections]aqgSection
}

func (h *aqgHeader) undirected() bool { return h.flags&aqgFlagUndirected != 0 }

// sectionSizes returns the exact byte length of every section implied by the
// graph shape, in table order.
func (h *aqgHeader) sectionSizes() [aqgSections]int64 {
	if h.undirected() {
		return [aqgSections]int64{8 * (h.n + 1), 4 * h.slots, 8 * h.slots, 8 * h.slots}
	}
	return [aqgSections]int64{8 * (h.n + 1), 4 * h.slots, 8 * (h.n + 1), 4 * h.slots}
}

// layout assigns the canonical section offsets: sections in table order,
// starting at the first page boundary, each aligned to 8 bytes.
func (h *aqgHeader) layout() {
	sizes := h.sectionSizes()
	pos := int64(aqgHeaderSize)
	for i, sz := range sizes {
		h.sec[i] = aqgSection{off: pos, size: sz}
		pos = align8(pos + sz)
	}
}

// payloadEnd is the byte offset one past the last section.
func (h *aqgHeader) payloadEnd() int64 {
	last := h.sec[aqgSections-1]
	return last.off + last.size
}

func align8(x int64) int64 { return (x + 7) &^ 7 }

// BinaryFormat inspects the leading bytes of a graph file and reports which
// binary container they announce: 2 for an .aqg v2 container, 1 for the
// legacy v1 WriteBinary format, 0 for anything else (text formats included).
// Fewer than 8 bytes of head always report 0.
func BinaryFormat(head []byte) int {
	if len(head) < 8 {
		return 0
	}
	if string(head[:8]) == aqgMagic {
		return 2
	}
	var v1 [8]byte
	binary.LittleEndian.PutUint64(v1[:], binMagic)
	if bytes.Equal(head[:8], v1[:]) {
		return 1
	}
	return 0
}

// WriteContainer serializes a directed graph as an .aqg v2 container. The
// in-CSR (built first if g has not built it yet) is persisted alongside the
// out-CSR, so loading performs no rebuild.
func WriteContainer(w io.Writer, g *Directed) error {
	inOff, inAdj := g.InCSR()
	h := &aqgHeader{
		n:     int64(g.n),
		slots: int64(len(g.outAdj)),
		edges: int64(len(g.outAdj)),
	}
	h.layout()
	cw := newContainerWriter(w, h)
	cw.int64Section(0, g.outOff)
	cw.vSection(1, g.outAdj)
	cw.int64Section(2, inOff)
	cw.vSection(3, inAdj)
	return cw.finish()
}

// WriteUndirectedContainer serializes an undirected graph as an .aqg v2
// container, persisting the mate-slot and dense-edge-id indexes so nothing is
// reconstructed on load. This is the checkpoint format for the engine's
// materialized undirected graphs. It builds g's edge-id index if g has none
// yet; the mate slots are derived for the write and dropped.
func WriteUndirectedContainer(w io.Writer, g *Undirected) error {
	h := &aqgHeader{
		flags: aqgFlagUndirected,
		n:     int64(g.n),
		slots: int64(len(g.adj)),
		edges: g.NumEdges(),
	}
	h.layout()
	cw := newContainerWriter(w, h)
	cw.int64Section(0, g.off)
	cw.vSection(1, g.adj)
	cw.int64Section(2, mateSlots(g.off, g.adj))
	cw.int64Section(3, g.EdgeIDs())
	return cw.finish()
}

// mateSlots derives the mate-slot index of a symmetric CSR — slot s maps to
// the slot holding the reverse copy of its edge — by the cursor pass.
func mateSlots(off []int64, adj []V) []int64 {
	mate := make([]int64, len(adj))
	walkEdges(off, adj, func(s, r, _ int64) bool {
		mate[s], mate[r] = r, s
		return true
	})
	return mate
}

// containerWriter streams header and sections with canonical padding,
// latching the first error.
type containerWriter struct {
	bw  *bufio.Writer
	h   *aqgHeader
	pos int64
	err error
}

func newContainerWriter(w io.Writer, h *aqgHeader) *containerWriter {
	cw := &containerWriter{bw: bufio.NewWriterSize(w, 1<<20), h: h, pos: aqgHeaderSize}
	var hdr [aqgHeaderSize]byte
	copy(hdr[0:8], aqgMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], aqgVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], h.flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(h.n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(h.slots))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(h.edges))
	at := 48
	for _, s := range h.sec {
		binary.LittleEndian.PutUint64(hdr[at:], uint64(s.off))
		binary.LittleEndian.PutUint64(hdr[at+8:], uint64(s.size))
		at += 16
	}
	_, cw.err = cw.bw.Write(hdr[:])
	return cw
}

// pad advances the stream to the section's offset with zero bytes.
func (cw *containerWriter) pad(i int) {
	if cw.err != nil {
		return
	}
	var zero [8]byte
	for cw.pos < cw.h.sec[i].off {
		n := cw.h.sec[i].off - cw.pos
		if n > 8 {
			n = 8
		}
		if _, cw.err = cw.bw.Write(zero[:n]); cw.err != nil {
			return
		}
		cw.pos += n
	}
}

func (cw *containerWriter) int64Section(i int, v []int64) {
	cw.pad(i)
	if cw.err != nil {
		return
	}
	if hostLittleEndian {
		_, cw.err = cw.bw.Write(int64Bytes(v))
	} else {
		var buf [8]byte
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			if _, cw.err = cw.bw.Write(buf[:]); cw.err != nil {
				return
			}
		}
	}
	cw.pos += int64(len(v)) * 8
}

func (cw *containerWriter) vSection(i int, v []V) {
	cw.pad(i)
	if cw.err != nil {
		return
	}
	if hostLittleEndian {
		_, cw.err = cw.bw.Write(vBytes(v))
	} else {
		var buf [4]byte
		for _, x := range v {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			if _, cw.err = cw.bw.Write(buf[:]); cw.err != nil {
				return
			}
		}
	}
	cw.pos += int64(len(v)) * 4
}

func (cw *containerWriter) finish() error {
	if cw.err != nil {
		return cw.err
	}
	return cw.bw.Flush()
}

// parseAqgHeader decodes and validates the fixed header: magic, version,
// flags, plausible shape, and a section table that matches the canonical
// layout exactly.
func parseAqgHeader(buf []byte) (*aqgHeader, error) {
	if string(buf[:8]) != aqgMagic {
		return nil, fmt.Errorf("graph: not an .aqg container (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != aqgVersion {
		return nil, fmt.Errorf("graph: unsupported container version %d (want %d)", v, aqgVersion)
	}
	h := &aqgHeader{
		flags: binary.LittleEndian.Uint32(buf[12:16]),
		n:     int64(binary.LittleEndian.Uint64(buf[16:24])),
		slots: int64(binary.LittleEndian.Uint64(buf[24:32])),
		edges: int64(binary.LittleEndian.Uint64(buf[32:40])),
	}
	if h.flags&^uint32(aqgFlagUndirected) != 0 {
		return nil, fmt.Errorf("graph: container carries unknown flag bits %#x", h.flags)
	}
	const maxSlots = (1 << 62) / 8 // keeps every byte-size computation in int64
	if h.n < 0 || h.n >= int64(NoVertex) || h.slots < 0 || h.slots > maxSlots || h.edges < 0 {
		return nil, fmt.Errorf("graph: container header implausible (n=%d slots=%d edges=%d)", h.n, h.slots, h.edges)
	}
	if h.undirected() {
		if h.slots != 2*h.edges {
			return nil, fmt.Errorf("graph: undirected container slots=%d, want 2×edges=%d", h.slots, 2*h.edges)
		}
	} else if h.edges != h.slots {
		return nil, fmt.Errorf("graph: directed container edges=%d, want slots=%d", h.edges, h.slots)
	}
	sizes := h.sectionSizes()
	pos := int64(aqgHeaderSize)
	at := 48
	for i := range h.sec {
		h.sec[i] = aqgSection{
			off:  int64(binary.LittleEndian.Uint64(buf[at:])),
			size: int64(binary.LittleEndian.Uint64(buf[at+8:])),
		}
		at += 16
		if h.sec[i].off != pos || h.sec[i].size != sizes[i] {
			return nil, fmt.Errorf("graph: container section table corrupt (section %d at %d/%d bytes, want %d/%d)",
				i, h.sec[i].off, h.sec[i].size, pos, sizes[i])
		}
		pos = align8(pos + sizes[i])
	}
	// The format is canonical: reserved bytes and header padding must be zero,
	// so every accepted container re-serializes byte-identically.
	if !allZero(buf[40:48]) || !allZero(buf[112:aqgHeaderSize]) {
		return nil, fmt.Errorf("graph: container header padding not zero")
	}
	return h, nil
}

// allZero reports whether every byte in b is zero.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// LoadContainer opens an .aqg container with zero copy where possible: on
// supported (unix, little-endian) hosts the file is mmap'd and the graph's
// CSR slices alias the mapping directly after one validation pass over every
// section — no parsing, no rebuild, O(1) heap allocation. On Linux the pass
// hands each checked window's pages back to the page cache, so the process
// keeps resident only the header page and whatever later reads fault back
// in. The file must stay unchanged while it is mapped. Call the returned
// container's Release to unmap once the graph is no longer needed. On hosts
// without mmap (or on big-endian machines, or when mapping fails) it falls
// back to the streaming ReadContainer, which heap-allocates the slices.
func LoadContainer(path string) (*Container, error) {
	if hostLittleEndian {
		if data, err := mmapFile(path); err == nil {
			c, cerr := containerFromMapping(data)
			if cerr != nil {
				munmapFile(data)
				return nil, cerr
			}
			return c, nil
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadContainer(bufio.NewReaderSize(f, 1<<16))
}

// containerFromMapping parses, validates and aliases a complete in-memory
// container image (the mmap path). Caller guarantees a little-endian host;
// the returned container's slices alias data.
func containerFromMapping(data []byte) (*Container, error) {
	if len(data) < aqgHeaderSize {
		return nil, fmt.Errorf("graph: container truncated (%d bytes, header needs %d)", len(data), aqgHeaderSize)
	}
	h, err := parseAqgHeader(data)
	if err != nil {
		return nil, err
	}
	if end := h.payloadEnd(); int64(len(data)) != end {
		return nil, fmt.Errorf("graph: container is %d bytes, sections end at %d", len(data), end)
	}
	pos := int64(aqgHeaderSize)
	for _, s := range h.sec {
		if !allZero(data[pos:s.off]) { // canonical: alignment gaps are zero
			return nil, fmt.Errorf("graph: container section padding not zero")
		}
		pos = s.off + s.size
	}
	sec := func(i int) []byte { s := h.sec[i]; return data[s.off : s.off+s.size] }
	rel := pageReleaser{data}
	var c *Container
	if h.undirected() {
		c, err = h.assembleUndirected(aliasInt64(sec(0)), aliasV(sec(1)), aliasInt64(sec(2)), aliasInt64(sec(3)))
	} else {
		c, err = h.assembleDirected(aliasInt64(sec(0)), aliasV(sec(1)), aliasInt64(sec(2)), aliasV(sec(3)), rel)
	}
	if err != nil {
		return nil, err
	}
	// Every section passed: release what the windows could not, namely the
	// pages sections share and the whole of an undirected container, whose
	// index walk reads rows out of order.
	rel.release(data, aqgHeaderSize, len(data))
	c.mapping = data
	return c, nil
}

// pageReleaser hands checked ranges of a container mapping back to the page
// cache (releasePages), so a load does not keep the file resident. The pages
// stay in the page cache and fault back in on the next read; the mapping is
// shared and read-only, so what a read sees does not change. The zero value,
// used for heap-backed containers, releases nothing.
type pageReleaser struct{ data []byte }

// pageSize is the granularity of releasePages.
var pageSize = os.Getpagesize()

// release drops the pages of sec, a section of the mapping whose bytes
// below hi the caller has checked, from the page holding sec[lo] up to the
// page holding sec[hi]. Neither a page sec shares with the bytes before it
// nor the page holding sec[hi] is dropped, unless hi ends the file.
func (r pageReleaser) release(sec []byte, lo, hi int) {
	if r.data == nil || lo >= hi {
		return
	}
	s := int(uintptr(unsafe.Pointer(unsafe.SliceData(sec))) - uintptr(unsafe.Pointer(unsafe.SliceData(r.data))))
	a := max((s+lo)&^(pageSize-1), (s+pageSize-1)&^(pageSize-1))
	b := s + hi
	if b != len(r.data) {
		b &^= pageSize - 1
	}
	if a < b {
		releasePages(r.data[a:b])
	}
}

// ReadContainer deserializes an .aqg container from a stream — the portable
// path for pipes, gzip-wrapped containers, and hosts where mmap is
// unavailable. The slices are heap-allocated (~1× the file size); the
// validation is identical to the mmap path.
func ReadContainer(r io.Reader) (*Container, error) {
	hdr := make([]byte, aqgHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("graph: truncated container header: %w", err)
	}
	h, err := parseAqgHeader(hdr)
	if err != nil {
		return nil, err
	}
	pos := int64(aqgHeaderSize)
	skipTo := func(off int64) error {
		if off < pos {
			return fmt.Errorf("graph: container sections out of order")
		}
		var gap [8]byte // alignment gaps are at most 7 bytes and must be zero
		if off-pos > int64(len(gap)) {
			return fmt.Errorf("graph: container sections out of order")
		}
		if _, err := io.ReadFull(r, gap[:off-pos]); err != nil {
			return fmt.Errorf("graph: truncated container: %w", err)
		}
		if !allZero(gap[:off-pos]) {
			return fmt.Errorf("graph: container section padding not zero")
		}
		pos = off
		return nil
	}
	sectionName := func(i int) string {
		if h.undirected() {
			return [...]string{"offsets", "adjacency", "mate", "edge-id"}[i]
		}
		return [...]string{"out-offsets", "out-adjacency", "in-offsets", "in-adjacency"}[i]
	}
	readI64 := func(i int) ([]int64, error) {
		if err := skipTo(h.sec[i].off); err != nil {
			return nil, err
		}
		out, err := readInt64Section(r, h.sec[i].size/8, sectionName(i))
		pos += h.sec[i].size
		return out, err
	}
	readV := func(i int) ([]V, error) {
		if err := skipTo(h.sec[i].off); err != nil {
			return nil, err
		}
		out, err := readVSection(r, h.sec[i].size/4, sectionName(i))
		pos += h.sec[i].size
		return out, err
	}
	s0, err := readI64(0)
	if err != nil {
		return nil, err
	}
	s1, err := readV(1)
	if err != nil {
		return nil, err
	}
	var c *Container
	if h.undirected() {
		mate, err := readI64(2)
		if err != nil {
			return nil, err
		}
		eid, err := readI64(3)
		if err != nil {
			return nil, err
		}
		c, err = h.assembleUndirected(s0, s1, mate, eid)
		if err != nil {
			return nil, err
		}
	} else {
		inOff, err := readI64(2)
		if err != nil {
			return nil, err
		}
		inAdj, err := readV(3)
		if err != nil {
			return nil, err
		}
		c, err = h.assembleDirected(s0, s1, inOff, inAdj, pageReleaser{})
		if err != nil {
			return nil, err
		}
	}
	// Canonical containers end exactly at the last section.
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, fmt.Errorf("graph: trailing data after container sections")
	}
	return c, nil
}

// assembleDirected validates both CSRs — each canonical, and the in-CSR the
// transpose of the out-CSR, which Undirect's merge relies on — and wraps
// them in a Directed graph. rel releases each window once it passed.
func (h *aqgHeader) assembleDirected(outOff []int64, outAdj []V, inOff []int64, inAdj []V, rel pageReleaser) (*Container, error) {
	// Both arc sets are duplicate-free and equally sized, so equal keyed
	// multiset hashes mean equal sets (a mismatch slips through with
	// probability ~2⁻⁶⁴ under the per-load random key).
	key := rand.Uint64()
	outHash, err := validateCSR(h.n, outOff, outAdj, "out", key, false, rel)
	if err != nil {
		return nil, err
	}
	inHash, err := validateCSR(h.n, inOff, inAdj, "in", key, true, rel)
	if err != nil {
		return nil, err
	}
	if outHash != inHash {
		return nil, fmt.Errorf("graph: container in-CSR is not the transpose of the out-CSR")
	}
	g := (&Directed{n: int(h.n), outOff: outOff, outAdj: outAdj}).withIn(inOff, inAdj)
	return &Container{Directed: g}, nil
}

// assembleUndirected validates the CSR plus the mate/eid indexes and wraps
// them in an Undirected graph that keeps the edge ids (the mate slots are
// only checked). The index walk reads rows out of order, so nothing is
// released before it passed.
func (h *aqgHeader) assembleUndirected(off []int64, adj []V, mate, eid []int64) (*Container, error) {
	if _, err := validateCSR(h.n, off, adj, "adjacency", 0, false, pageReleaser{}); err != nil {
		return nil, err
	}
	if err := validateUndirectedIndex(off, adj, mate, eid); err != nil {
		return nil, err
	}
	g := &Undirected{n: int(h.n), off: off, adj: adj}
	g.eid.p.Store(&eid)
	return &Container{Undirected: g}, nil
}

// ingestWindow bounds the bytes of each section one validation window
// covers, in whole vertices; a vertex whose row is larger is a window of its
// own. A window's pages are released once it passed, so a load keeps at most
// a few windows of the mapping resident whatever the graph's size. Tests
// shrink it.
var ingestWindow = 4 << 20

// validateCSR is the load-time validation pass over one CSR: offsets
// monotone from 0 to len(adj), every target in range, every segment strictly
// increasing (sorted, deduplicated) with no self-loops — exactly the
// invariants the builders emit and the binary-search query paths (HasArc,
// EdgeIDOf) rely on. The same scan returns the CSR's keyed arc-set hash: the
// wrapping sum of a 64-bit mix of every arc u→v (v→u for an in-CSR, so a CSR
// and its transpose hash alike).
//
// It runs window by window (ingestWindow). The offsets are checked up to one
// window ahead, a window ends at the last checked offset whose rows fit the
// budget, and its rows are checked in vertex-parallel blocks; then rel
// releases the window's offsets and adjacency. It allocates O(1).
func validateCSR(n int64, off []int64, adj []V, what string, key uint64, in bool, rel pageReleaser) (uint64, error) {
	if int64(len(off)) != n+1 {
		return 0, fmt.Errorf("graph: container %s offsets length %d, want %d", what, len(off), n+1)
	}
	if off[0] != 0 {
		return 0, fmt.Errorf("graph: container %s offsets must start at 0", what)
	}
	if off[n] != int64(len(adj)) {
		return 0, fmt.Errorf("graph: container %s offsets end at %d, want %d", what, off[n], len(adj))
	}
	var badOff, badTarget, badOrder atomic.Bool
	var sum atomic.Uint64
	th := parallel.Threads(0)
	checkOffsets := func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			if off[u+1] < off[u] || off[u+1] > int64(len(adj)) {
				badOff.Store(true)
				return
			}
		}
	}
	checkRows := func(ulo, uhi, _ int) {
		var h uint64
		for u := ulo; u < uhi; u++ {
			var prev V
			first := true
			for _, v := range adj[off[u]:off[u+1]] {
				if int64(v) >= n || v == V(u) {
					badTarget.Store(true)
					return
				}
				if !first && v <= prev {
					badOrder.Store(true)
					return
				}
				prev, first = v, false
				src, dst := uint64(u), uint64(v)
				if in {
					src, dst = dst, src
				}
				z := (src<<32 | dst) ^ key
				z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				h += z ^ z>>31
			}
		}
		sum.Add(h)
	}
	maxRows, maxSlots := max(ingestWindow/8, 1), int64(max(ingestWindow/4, 1))
	checked := 0 // off[:checked+1] is monotone and within [0, len(adj)]
	for lo := 0; lo < int(n); {
		if ahead := min(int(n), lo+maxRows); checked < ahead {
			parallel.ForBlocks(checked, ahead, th, checkOffsets)
			if badOff.Load() {
				return 0, fmt.Errorf("graph: container %s offsets not monotone", what)
			}
			checked = ahead
		}
		hi := lo + max(1, sort.Search(checked-lo, func(i int) bool { return off[lo+1+i]-off[lo] > maxSlots }))
		parallel.ForBlocks(lo, hi, th, checkRows)
		switch {
		case badTarget.Load():
			return 0, fmt.Errorf("graph: container %s adjacency target out of range", what)
		case badOrder.Load():
			return 0, fmt.Errorf("graph: container %s adjacency segment not strictly increasing", what)
		}
		offEnd := hi
		if hi == int(n) {
			offEnd++
		}
		rel.release(int64Bytes(off), 8*lo, 8*offEnd)
		rel.release(vBytes(adj), 4*int(off[lo]), 4*int(off[hi]))
		lo = hi
	}
	return sum.Load(), nil
}

// validateUndirectedIndex checks the mate/eid sections for equality with the
// canonical indexes the cursor pass derives from the (already validated)
// CSR. That is complete: it rejects an asymmetric CSR, a mate that is not the
// reverse slot, and any edge-id assignment but the dense (lower endpoint,
// slot) order — two edges sharing an id included. The pass is serial and
// allocates one cursor per vertex.
func validateUndirectedIndex(off []int64, adj []V, mate, eid []int64) error {
	if len(mate) != len(adj) || len(eid) != len(adj) {
		return fmt.Errorf("graph: container mate/eid length %d/%d, want %d", len(mate), len(eid), len(adj))
	}
	if !walkEdges(off, adj, func(s, r, k int64) bool {
		return mate[s] == r && mate[r] == s && eid[s] == k && eid[r] == k
	}) {
		return fmt.Errorf("graph: container adjacency asymmetric or mate/edge-id index not canonical")
	}
	return nil
}

// int64Bytes views v's memory as bytes (little-endian on the hosts that
// alias or write it directly).
func int64Bytes(v []int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// vBytes views v's memory as bytes.
func vBytes(v []V) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)
}

// aliasInt64 reinterprets an 8-byte-aligned little-endian section of the
// mapping as []int64 without copying. Callers guarantee alignment (sections
// start 8-byte aligned within a page-aligned mapping) and host endianness.
func aliasInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// aliasV reinterprets a 4-byte-aligned little-endian section of the mapping
// as []V without copying.
func aliasV(b []byte) []V {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*V)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}
