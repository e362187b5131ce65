// Command aquila-verify cross-checks every parallel Aquila algorithm against
// the serial ground truth on a user-supplied (or generated) graph — the
// self-check an adopter runs before trusting results on their own data.
//
// Usage:
//
//	aquila-verify -graph my-edges.txt
//	aquila-verify -gen rmat -scale 13
//
// Exit status 0 means every decomposition matched Hopcroft–Tarjan / Tarjan.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aquila"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/cli"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/verify"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file")
		genKind   = flag.String("gen", "", "generate instead: rmat, random, social")
		scale     = flag.Int("scale", 12, "generator scale")
		seed      = flag.Uint64("seed", 1, "generator seed")
		threads   = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()

	d, err := obtain(*graphPath, *genKind, *scale, *seed, *threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquila-verify:", err)
		os.Exit(1)
	}
	u := graph.Undirect(d)
	fmt.Printf("graph: %d vertices, %d arcs (%d undirected edges)\n",
		d.NumVertices(), d.NumArcs(), u.NumEdges())

	failed := false
	check := func(name string, fn func() error) {
		start := time.Now()
		err := fn()
		status := "PASS"
		if err != nil {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %-6s %s (%v)", name, status, time.Since(start).Round(time.Microsecond))
		if err != nil {
			fmt.Printf("  %v", err)
		}
		fmt.Println()
	}

	check("CC", func() error {
		return verify.SamePartition(cc.Run(u, cc.Options{Threads: *threads}).Label, serialdfs.CC(u))
	})
	check("SCC", func() error {
		return verify.SamePartition(scc.Run(d, scc.Options{Threads: *threads}).Label, serialdfs.SCC(d))
	})
	check("BiCC", func() error {
		truth := serialdfs.BiCC(u)
		res := bicc.Run(u, bicc.Options{Threads: *threads})
		if err := verify.SameBoolSet(res.IsAP, truth.IsAP, "articulation points"); err != nil {
			return err
		}
		if res.NumBlocks != truth.NumBlocks {
			return fmt.Errorf("block count %d, serial oracle %d", res.NumBlocks, truth.NumBlocks)
		}
		return verify.SameEdgePartition(res.BlockOf, truth.BlockOf)
	})
	check("BgCC", func() error {
		res := bgcc.Run(u, bgcc.Options{Threads: *threads})
		if err := verify.BridgeSetEqual(res.IsBridge, serialdfs.Bridges(u)); err != nil {
			return err
		}
		return verify.SamePartition(res.Label, serialdfs.BgCC(u))
	})

	if failed {
		fmt.Println("verification FAILED")
		os.Exit(1)
	}
	fmt.Println("all decompositions match the serial ground truth")
}

func obtain(path, kind string, scale int, seed uint64, threads int) (*aquila.Directed, error) {
	if path != "" {
		// The shared loader auto-detects .aqg containers (mmap'd) and the
		// text formats, so any aquila-gen output verifies.
		lg, err := cli.LoadDirected(path, threads)
		if err != nil {
			return nil, err
		}
		return lg.Graph, nil
	}
	switch kind {
	case "rmat":
		return gen.RMAT(scale, 16, seed), nil
	case "random":
		n := scale * 1000
		return gen.Random(n, 16*n, seed), nil
	case "social":
		return gen.Social(gen.SocialConfig{
			GiantVertices: scale * 1000, GiantAvgDeg: 6,
			SmallComps: scale * 40, SmallMaxSize: 30,
			Isolated: scale * 20, MutualFrac: 0.4, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("need -graph FILE or -gen {rmat,random,social}")
	}
}
