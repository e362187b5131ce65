package cli

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"aquila"
	"aquila/internal/graph"
)

// LoadedGraph is a directed graph obtained from disk together with the
// resource backing it and how long each ingestion phase took. When the graph
// came from an mmap'd .aqg container, Container is non-nil and the graph's
// slices alias the mapping: call Release once the graph is out of use (heap-
// backed graphs release trivially).
type LoadedGraph struct {
	Graph     *aquila.Directed
	Container *aquila.Container // non-nil iff the graph aliases an mmap'd file
	ParseDur  time.Duration     // reading/decoding the file
	BuildDur  time.Duration     // CSR construction (zero for binary formats)
}

// Release unmaps the backing file, if any. The graph must not be used after.
func (lg *LoadedGraph) Release() error {
	if lg.Container == nil {
		return nil
	}
	c := lg.Container
	lg.Container, lg.Graph = nil, nil
	return c.Release()
}

// LoadDirected loads a directed graph from path, auto-detecting the format by
// content rather than extension for binary files:
//
//   - .aqg v2 containers (magic "AQG2\x1aCSR") are mmap'd via LoadContainer —
//     zero parse, zero rebuild; gzip-wrapped containers stream-decode.
//   - anything else parses as text by extension: MatrixMarket (.mtx), METIS
//     (.metis/.graph), else a whitespace edge list; .gz unwraps transparently.
//
// This is the single ingestion path shared by cmd/aquila, cmd/aquilad and
// cmd/aquila-verify, so a graph written by aquila-gen in any format is
// readable by every command.
func LoadDirected(path string, threads int) (*LoadedGraph, error) {
	head, err := sniffFile(path)
	if err != nil {
		return nil, err
	}
	if aquila.BinaryFormat(head) == 2 {
		start := time.Now()
		c, err := aquila.LoadContainer(path)
		if err != nil {
			return nil, err
		}
		if c.Directed == nil {
			c.Release()
			return nil, fmt.Errorf("%s is an undirected .aqg container; this command needs a directed graph", path)
		}
		return &LoadedGraph{Graph: c.Directed, Container: containerIfMapped(c), ParseDur: time.Since(start)}, nil
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := aquila.MaybeGunzip(f)
	if err != nil {
		return nil, err
	}
	// Re-sniff through the (possibly decompressed) stream: a .aqg.gz
	// announces itself by magic, not by file name.
	br := bufio.NewReaderSize(r, 1<<16)
	if inner, _ := br.Peek(8); aquila.BinaryFormat(inner) == 2 {
		start := time.Now()
		c, err := aquila.ReadContainer(br)
		if err != nil {
			return nil, err
		}
		if c.Directed == nil {
			return nil, fmt.Errorf("%s is an undirected .aqg container; this command needs a directed graph", path)
		}
		return &LoadedGraph{Graph: c.Directed, ParseDur: time.Since(start)}, nil
	}

	parseStart := time.Now()
	var edges []aquila.Edge
	var n int
	switch base := strings.TrimSuffix(path, ".gz"); {
	case strings.HasSuffix(base, ".mtx"):
		edges, n, err = aquila.ParseMatrixMarket(br)
	case strings.HasSuffix(base, ".metis"), strings.HasSuffix(base, ".graph"):
		// METIS lists every undirected edge in both directions, which is
		// exactly a symmetric directed graph — build it straight away so
		// every query class is available.
		edges, n, err = aquila.ParseMETIS(br)
	default:
		edges, n, err = parseEdgeListFile(f, br, threads)
	}
	parseDur := time.Since(parseStart)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	g := aquila.NewDirectedThreads(n, edges, threads)
	return &LoadedGraph{Graph: g, ParseDur: parseDur, BuildDur: time.Since(buildStart)}, nil
}

// parseEdgeListFile reads the rest of the edge list f into one buffer sized
// from the file (a gzip stream may regrow it) and parses it on threads
// workers.
func parseEdgeListFile(f *os.File, r io.Reader, threads int) ([]aquila.Edge, int, error) {
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	data, err := graph.ReadAllSized(r, size)
	if err != nil {
		return nil, 0, err
	}
	return graph.ParseEdgeListBytes(data, threads)
}

// sniffFile reads up to the first 8 bytes of path. Short files return what
// they have; format sniffing treats them as text.
func sniffFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, 8)
	k, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return head[:k], nil
}

// containerIfMapped keeps the container only when it actually holds an mmap
// that needs releasing; heap-backed loads don't need the indirection.
func containerIfMapped(c *aquila.Container) *aquila.Container {
	if c.Mapped() {
		return c
	}
	return nil
}
