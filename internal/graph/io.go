package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"

	"aquila/internal/parallel"
)

// maxEdgeListLine mirrors the seed scanner's 1 MiB token buffer: lines at or
// beyond this length fail with bufio.ErrTooLong, exactly as the serial
// scanner does when its buffer fills before the newline arrives.
const maxEdgeListLine = 1 << 20

// minParseChunk is the smallest byte range worth handing to a parser worker;
// inputs below p*minParseChunk use fewer chunks (down to one).
const minParseChunk = 1 << 16

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line;
// '#'- or '%'-prefixed lines are comments, matching SNAP and KONECT dumps).
// It returns the edge list and the implied vertex count (max id + 1).
//
// The input is slurped into one buffer (presized when r reports its length)
// and parsed in parallel: the buffer is split at newline boundaries into
// per-worker chunks that parse into disjoint ranges of one edge slice.
// Accepted inputs, rejected inputs, error text and line numbers are identical
// to the line-at-a-time seed parser (ReadEdgeListSerial), which the
// differential and fuzz tests pin.
func ReadEdgeList(r io.Reader) (edges []Edge, n int, err error) {
	var hint int64
	switch s := r.(type) {
	case interface{ Len() int }:
		hint = int64(s.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			hint = fi.Size()
		}
	}
	data, err := ReadAllSized(r, hint)
	if err != nil {
		return nil, 0, err
	}
	return ParseEdgeListBytes(data, 0)
}

// ReadAllSized reads r to EOF into one buffer presized to hint bytes (a
// file's size, a reader's remaining length), so a right hint costs a single
// allocation where io.ReadAll regrows by doubling. A short or zero hint only
// costs that regrowth.
func ReadAllSized(r io.Reader, hint int64) ([]byte, error) {
	var buf bytes.Buffer
	if hint > 0 {
		buf.Grow(int(hint) + bytes.MinRead) // the final Read needs room to see EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// ParseEdgeListBytes parses an in-memory edge list with up to threads workers
// (Threads semantics: < 1 means GOMAXPROCS), with ReadEdgeList's exact
// semantics.
func ParseEdgeListBytes(data []byte, threads int) ([]Edge, int, error) {
	p := parallel.Threads(threads)
	if c := len(data) / minParseChunk; c < p {
		p = c
	}
	if p < 1 {
		p = 1
	}
	starts := splitAtLines(data, p)
	// Line counts per chunk (a cheap newline scan) give every worker its
	// absolute starting line for error messages. They also bound each chunk's
	// edges: a line holds at most one edge, and an edge line takes at least
	// four bytes with its newline ("0 1\n"). So chunk i parses straight into
	// buf[at[i]:at[i+1]] of one shared, presized slice, no append ever
	// regrows, and blank lines cannot inflate the buffer past 2× the input.
	lines := make([]int, len(starts)+1)
	at := make([]int, len(starts)+1)
	parallel.For(0, len(starts), p, func(i int) {
		c := chunkBytes(data, starts, i)
		lines[i+1] = countLines(c)
		at[i+1] = min(lines[i+1], (len(c)+1)/4)
	})
	for i := 0; i < len(starts); i++ {
		lines[i+1] += lines[i]
		at[i+1] += at[i]
	}
	buf := make([]Edge, at[len(starts)])
	chunks := make([]parseChunk, len(starts))
	parallel.For(0, len(starts), p, func(i int) {
		chunks[i] = parseEdgeChunk(chunkBytes(data, starts, i), lines[i], buf[at[i]:at[i]:at[i+1]])
	})

	// The earliest chunk with an error wins: chunk order is line order, and
	// within a chunk parsing stopped at its first bad line — together that is
	// the first error the serial scan would have hit. Chunks with fewer edges
	// than slots left gaps; each chunk's edges slide down to close them.
	// total ≤ at[i], so a move never overwrites edges still to move.
	total := 0
	maxID := int64(-1)
	for i := range chunks {
		if chunks[i].err != nil {
			return nil, 0, chunks[i].err
		}
		if total != at[i] {
			copy(buf[total:], chunks[i].edges)
		}
		total += len(chunks[i].edges)
		if chunks[i].maxID > maxID {
			maxID = chunks[i].maxID
		}
	}
	if total == 0 {
		return nil, int(maxID + 1), nil
	}
	return buf[:total:total], int(maxID + 1), nil
}

// countLines is the number of lines bufio.Scanner would yield for c: one per
// newline, plus a final line without one.
func countLines(c []byte) int {
	nl := bytes.Count(c, []byte{'\n'})
	if len(c) > 0 && c[len(c)-1] != '\n' {
		nl++
	}
	return nl
}

// splitAtLines returns the start offsets of up to want chunks of data, each
// boundary advanced to the byte after a newline so no line straddles chunks.
func splitAtLines(data []byte, want int) []int {
	starts := []int{0}
	for i := 1; i < want; i++ {
		pos := i * len(data) / want
		prev := starts[len(starts)-1]
		if pos <= prev {
			continue
		}
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break
		}
		if s := pos + nl + 1; s > prev && s < len(data) {
			starts = append(starts, s)
		}
	}
	return starts
}

// chunkBytes is chunk i of data under the start offsets.
func chunkBytes(data []byte, starts []int, i int) []byte {
	if i+1 < len(starts) {
		return data[starts[i]:starts[i+1]]
	}
	return data[starts[i]:]
}

// parseChunk is one worker's share of a parallel edge-list parse.
type parseChunk struct {
	edges []Edge
	maxID int64
	err   error
}

// parseEdgeChunk parses one newline-aligned chunk, numbering lines from
// startLine (lines before this chunk) and appending to edges, which the caller
// sizes to hold every edge the chunk can contain. Lines the byte-level fast path
// (scanEdgeLine) decides cost no allocation; every other line goes through
// parseEdgeLineSeed, the seed scanner's rules byte for byte.
func parseEdgeChunk(data []byte, startLine int, edges []Edge) parseChunk {
	out := parseChunk{edges: edges, maxID: -1}
	line := startLine
	for len(data) > 0 {
		var raw []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl], data[nl+1:]
		} else {
			raw, data = data, nil
		}
		line++
		if len(raw) >= maxEdgeListLine {
			out.err = bufio.ErrTooLong
			return out
		}
		u, v, kind := scanEdgeLine(raw)
		switch kind {
		case lineSkip:
			continue
		case lineSlow:
			var err error
			if u, v, kind, err = parseEdgeLineSeed(raw, line); err != nil {
				out.err = err
				return out
			}
			if kind == lineSkip {
				continue
			}
		}
		if u > out.maxID {
			out.maxID = u
		}
		if v > out.maxID {
			out.maxID = v
		}
		out.edges = append(out.edges, Edge{V(u), V(v)})
	}
	return out
}

// A lineKind is scanEdgeLine's verdict on one line.
type lineKind uint8

const (
	lineSlow lineKind = iota // not provably common: apply the seed rules
	lineSkip                 // blank or comment
	lineEdge                 // two in-range ids
)

// asciiSpace marks the bytes below 0x80 that strings.TrimSpace and
// strings.Fields treat as whitespace.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// maxFastDigits is the longest id the fast path reads: ten decimal digits
// cover every id up to NoVertex-1 and cannot overflow.
const maxFastDigits = 10

// scanEdgeLine is the allocation-free fast path for the common line: ASCII
// whitespace, then a '#'/'%' comment, nothing, or two unsigned decimal ids of
// at most maxFastDigits digits and value at most NoVertex-1, each ending at
// ASCII whitespace or the end of the line. Whatever follows the second id is
// ignored, as the seed rules ignore extra fields. On such lines the result is
// exactly the seed rules'; any other line reports lineSlow — signs, non-ASCII
// bytes (U+0085 and U+00A0 are whitespace to the seed rules), over-long or
// out-of-range ids, junk glued to a field, a single field.
func scanEdgeLine(raw []byte) (u, v int64, kind lineKind) {
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] == '#' || raw[i] == '%' {
		return 0, 0, lineSkip
	}
	u, i, ok := scanID(raw, i)
	if !ok || i == len(raw) {
		return 0, 0, lineSlow
	}
	if v, _, ok = scanID(raw, skipSpace(raw, i)); !ok {
		return 0, 0, lineSlow
	}
	return u, v, lineEdge
}

// skipSpace is the index of the first byte at or after i that is not ASCII
// whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) && asciiSpace[raw[i]] {
		i++
	}
	return i
}

// scanID reads the fast path's id at raw[i:] and returns it with the index
// just past it; ok is false unless the id qualifies (see scanEdgeLine).
func scanID(raw []byte, i int) (id int64, end int, ok bool) {
	end = i
	for end < len(raw) && end-i <= maxFastDigits && raw[end]-'0' <= 9 {
		id = id*10 + int64(raw[end]-'0')
		end++
	}
	if end == i || end-i > maxFastDigits || id > int64(NoVertex)-1 {
		return 0, 0, false
	}
	if end < len(raw) && !asciiSpace[raw[end]] {
		return 0, 0, false
	}
	return id, end, true
}

// parseEdgeLineSeed applies the seed scanner's per-line rules to one line —
// trim, comment skip, >=2 whitespace fields, ParseInt errors wrapped with the
// absolute line number — and reports lineSkip or lineEdge.
func parseEdgeLineSeed(raw []byte, line int) (u, v int64, kind lineKind, err error) {
	text := strings.TrimSpace(string(raw))
	if text == "" || text[0] == '#' || text[0] == '%' {
		return 0, 0, lineSkip, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return 0, 0, 0, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
	}
	u, err = strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("graph: line %d: bad source id: %v", line, err)
	}
	v, err = strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("graph: line %d: bad target id: %v", line, err)
	}
	if u < 0 || v < 0 || u > int64(NoVertex)-1 || v > int64(NoVertex)-1 {
		return 0, 0, 0, fmt.Errorf("graph: line %d: vertex id out of range", line)
	}
	return u, v, lineEdge, nil
}

// ReadEdgeListSerial is the seed line-at-a-time parser, kept verbatim as the
// pinned reference the parallel parser is differentially tested against.
func ReadEdgeListSerial(r io.Reader) (edges []Edge, n int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	maxID := int64(-1)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad source id: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad target id: %v", line, err)
		}
		if u < 0 || v < 0 || u > int64(NoVertex)-1 || v > int64(NoVertex)-1 {
			return nil, 0, fmt.Errorf("graph: line %d: vertex id out of range", line)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{V(u), V(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return edges, int(maxID + 1), nil
}

// WriteEdgeList writes a directed graph as a plain "u v" edge list.
func WriteEdgeList(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(V(u)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

const binMagic = 0x41515543 // "AQUC"

// WriteBinary serializes a directed graph in the legacy v1 little-endian
// format (magic, n, arc count, out-CSR only). Superseded by the .aqg v2
// container (WriteContainer), which also persists the in-CSR and is
// mmap-able; WriteBinary is kept so existing v1 files remain reproducible
// and the compat reader stays testable.
func WriteBinary(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	hdr := []int64{binMagic, int64(g.n), int64(len(g.outAdj))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outOff); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outAdj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a directed graph written by WriteBinary (the
// legacy v1 format, which stores only the out-CSR). It constructs the graph
// in place with ~1× the final footprint: the offsets and adjacency are read
// into exactly-sized arrays and the in-CSR is derived by the builder's
// transpose (transposeCSR) — no intermediate []Edge expansion and no re-sort
// through the builder, which the old reader paid (~3× peak memory) on every
// load.
//
// Files whose segments are not canonical (sorted, deduplicated, loop-free —
// everything WriteBinary emits is) keep the old semantics: they are
// normalized through the builder path, at the old path's memory cost.
func ReadBinary(r io.Reader) (*Directed, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	magic := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	n := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	m := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if n < 0 || m < 0 || n >= int64(NoVertex) {
		return nil, fmt.Errorf("graph: implausible size in header (n=%d, m=%d)", n, m)
	}
	off, err := readInt64Section(br, n+1, "offsets")
	if err != nil {
		return nil, err
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: corrupt offset array (must start at 0)")
	}
	for u := int64(0); u < n; u++ {
		if off[u] > off[u+1] || off[u+1] > m {
			return nil, fmt.Errorf("graph: corrupt offset array")
		}
	}
	if off[n] != m {
		return nil, fmt.Errorf("graph: corrupt offset array")
	}
	adj, err := readVSection(br, m, "adjacency")
	if err != nil {
		return nil, err
	}
	canonical := true
	for u := int64(0); u < n; u++ {
		var prev V
		first := true
		for _, v := range adj[off[u]:off[u+1]] {
			if int64(v) >= n {
				return nil, fmt.Errorf("graph: adjacency target out of range")
			}
			if v == V(u) || (!first && v <= prev) {
				canonical = false
			}
			prev, first = v, false
		}
	}
	if !canonical {
		// Non-canonical segments (unsorted, duplicated, or self-looped) never
		// come from WriteBinary; normalize them through the builder exactly as
		// the old reader did.
		edges := make([]Edge, 0, m)
		for u := int64(0); u < n; u++ {
			for _, v := range adj[off[u]:off[u+1]] {
				edges = append(edges, Edge{V(u), v})
			}
		}
		return BuildDirected(int(n), edges), nil
	}
	inOff, inAdj := transposeCSR(off, adj, buildThreads(0, int(m)))
	return &Directed{n: int(n), outOff: off, outAdj: adj, inOff: inOff, inAdj: inAdj}, nil
}

// Section readers shared by the v1 reader and the v2 streaming container
// loader. Plausibly-sized sections are allocated exactly once (the ~1×
// memory property); only absurd header claims beyond maxExactSection fall
// back to growth tracking delivered bytes, so a corrupt header cannot force
// a huge allocation before the missing data is noticed. Decoding goes
// through a small reused byte buffer — unlike binary.Read, which allocates
// an internal buffer per call.
const (
	sectionChunkElems = 1 << 16 // elements decoded per read: ≤512 KiB transient buffer
	maxExactSection   = 1 << 24 // elements allocated up front when the header is plausible
)

func readInt64Section(r io.Reader, count int64, what string) ([]int64, error) {
	if count < 0 {
		return nil, fmt.Errorf("graph: negative %s section", what)
	}
	buf := make([]byte, 8*min64(count, sectionChunkElems))
	out := make([]int64, min64(count, maxExactSection))
	filled := int64(0)
	for filled < count {
		c := min64(count-filled, sectionChunkElems)
		b := buf[:8*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("graph: truncated %s: %w", what, err)
		}
		if int64(len(out)) < filled+c {
			out = append(out, make([]int64, filled+c-int64(len(out)))...)
		}
		for i := int64(0); i < c; i++ {
			out[filled+i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		filled += c
	}
	return out, nil
}

func readVSection(r io.Reader, count int64, what string) ([]V, error) {
	if count < 0 {
		return nil, fmt.Errorf("graph: negative %s section", what)
	}
	buf := make([]byte, 4*min64(count, sectionChunkElems))
	out := make([]V, min64(count, maxExactSection))
	filled := int64(0)
	for filled < count {
		c := min64(count-filled, sectionChunkElems)
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("graph: truncated %s: %w", what, err)
		}
		if int64(len(out)) < filled+c {
			out = append(out, make([]V, filled+c-int64(len(out)))...)
		}
		for i := int64(0); i < c; i++ {
			out[filled+i] = V(binary.LittleEndian.Uint32(b[4*i:]))
		}
		filled += c
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
