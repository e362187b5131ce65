// Command bench2json converts `go test -bench` output on stdin into a JSON
// snapshot on stdout:
//
//	go test -bench 'BFS|Pool' -benchmem -run '^$' ./... | bench2json > bench.json
//
// The snapshot is an object with two fields. "host" stamps where the
// numbers were taken: the goos, goarch and cpu lines `go test` prints, the
// GOMAXPROCS suffix of the benchmark names, and the Go version, so a later
// snapshot can tell a host change from a code change. "results" holds one
// object per benchmark result line: the benchmark name (with the -N
// GOMAXPROCS suffix stripped), iteration count, ns/op, and — when -benchmem
// was set — B/op and allocs/op. Other lines are ignored, so the full `go
// test` output can be piped straight through.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// result mirrors one benchmark output line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom testing.B ReportMetric units (e.g. "edges/s",
	// "MB/s") keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// host is the snapshot's stamp: the first goos, goarch and cpu header
// lines of the input, the GOMAXPROCS the benchmark names carry, and the Go
// version bench2json runs under (go run uses the toolchain that ran the
// benchmarks).
type host struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Go         string `json:"go"`
}

// snapshot is the whole JSON document.
type snapshot struct {
	Host    host     `json:"host"`
	Results []result `json:"results"`
}

func main() {
	snap, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// convert reads `go test -bench` output and returns its snapshot.
func convert(r io.Reader) (snapshot, error) {
	snap := snapshot{Host: host{Go: runtime.Version()}, Results: []result{}} // [] (not null) when no benchmarks matched
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok {
			for _, h := range []struct {
				key string
				dst *string
			}{{"goos", &snap.Host.GOOS}, {"goarch", &snap.Host.GOARCH}, {"cpu", &snap.Host.CPU}} {
				if k == h.key && *h.dst == "" {
					*h.dst = strings.TrimSpace(v)
				}
			}
		}
		if r, procs, ok := parseLine(line); ok {
			snap.Results = append(snap.Results, r)
			if snap.Host.GOMAXPROCS == 0 {
				snap.Host.GOMAXPROCS = procs
			}
		}
	}
	return snap, sc.Err()
}

// parseLine decodes a line of the form
//
//	BenchmarkName-8   	     100	  12345 ns/op	  64 B/op	   2 allocs/op
//
// returning the GOMAXPROCS suffix it strips (0 when there is none) and
// reporting ok=false for anything else.
func parseLine(line string) (r result, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, 0, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, 0, false
	}
	r = result{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return result{}, 0, false
			}
			seenNs = true
		case "B/op":
			if b, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = &b
			}
		case "allocs/op":
			if a, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = &a
			}
		default:
			// Custom b.ReportMetric units (edges/s, MB/s, ...): keep any
			// parsable value-unit pair so throughput metrics survive the
			// conversion.
			if !strings.Contains(unit, "/") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[unit] = v
			}
		}
	}
	return r, procs, seenNs
}
