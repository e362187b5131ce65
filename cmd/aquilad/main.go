// Command aquilad serves graph connectivity queries over HTTP: the aquila
// engine wrapped in the concurrent serving layer (epoch snapshots,
// singleflight, admission control) behind a stdlib JSON API.
//
// Usage:
//
//	aquilad -graph edges.txt -listen :8372
//	aquilad -gen rmat -scale 16 -threads 4 -max-inflight 2
//
// Endpoints: /v1/connected?u=&v=, /v1/cc, /v1/scc, /v1/bicc, /v1/bgcc,
// /v1/largest-cc, /v1/aps, /v1/bridges, /v1/histogram, /v1/epoch,
// POST /v1/apply, /metrics. An apply body may carry `"edges"` (insertions)
// and `"deletes"`; the first delete promotes the engine to the fully dynamic
// connectivity structure, after which epochs can shrink. An Aquila-Epoch
// request header pins a read to a retained past epoch; a `timeout` query
// parameter bounds the kernel work; shed requests answer 429 with
// Retry-After. See internal/httpd.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener stops accepting,
// in-flight requests drain for -grace, then still-running kernels are
// cancelled through the drain context and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aquila"
	"aquila/internal/cli"
	"aquila/internal/gen"
	"aquila/internal/httpd"
)

func main() {
	var (
		listen     = flag.String("listen", ":8372", "address to serve HTTP on")
		graphPath  = flag.String("graph", "", "edge-list file (whitespace-separated 'u v' lines)")
		genKind    = flag.String("gen", "", "generate instead of loading: rmat, random, social")
		scale      = flag.Int("scale", 12, "generator scale (rmat: log2 vertices; others: vertex count /1000)")
		seed       = flag.Uint64("seed", 1, "generator seed")
		threads    = flag.Int("threads", 0, "workers per kernel (0 = GOMAXPROCS)")
		noPartial  = flag.Bool("no-partial", false, "disable query transformation (always complete computation)")
		rebuild    = flag.Float64("rebuild-threshold", 0, "delta/base edge ratio forcing a static rebuild (0 = default 0.25, <0 = never)")
		maxInFly   = flag.Int("max-inflight", 0, "concurrent kernel slots (0 = GOMAXPROCS/threads)")
		maxQueue   = flag.Int("max-queue", 0, "admission queue depth (0 = 4*max-inflight, negative = shed immediately)")
		defTimeout = flag.Duration("default-timeout", 10*time.Second, "deadline for requests without a timeout parameter")
		maxTimeout = flag.Duration("max-timeout", 30*time.Second, "clamp on per-request timeout parameters")
		retain     = flag.Int("retain", 8, "past epochs retained for Aquila-Epoch pinned reads")
		grace      = flag.Duration("grace", 15*time.Second, "drain window for in-flight requests on shutdown")
		quiet      = flag.Bool("quiet", false, "suppress per-request access logs")
		ccPolicy   = flag.String("cc-policy", "auto", "CC algorithm matrix cell: auto, pipeline, or sampling+finish (e.g. afforest+uf-async)")
		sccPolicy  = flag.String("scc-policy", "auto", "SCC algorithm matrix cell: auto, coloring, or multireach")
		biccPolicy = flag.String("bicc-policy", "auto", "BiCC algorithm matrix cell: auto, constrained, or skeleton")
	)
	flag.Parse()

	lg := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(*listen, *graphPath, *genKind, *scale, *seed, *threads,
		*ccPolicy, *sccPolicy, *biccPolicy, *noPartial, *rebuild, *maxInFly, *maxQueue, *defTimeout, *maxTimeout,
		*retain, *grace, *quiet, lg); err != nil {
		fmt.Fprintln(os.Stderr, "aquilad:", err)
		os.Exit(1)
	}
}

func run(listen, graphPath, genKind string, scale int, seed uint64, threads int,
	ccPolicy, sccPolicy, biccPolicy string, noPartial bool, rebuild float64, maxInFly, maxQueue int,
	defTimeout, maxTimeout time.Duration, retain int, grace time.Duration,
	quiet bool, lg *slog.Logger) error {

	if err := aquila.ValidateCCPolicy(ccPolicy); err != nil {
		return err
	}
	if err := aquila.ValidateSCCPolicy(sccPolicy); err != nil {
		return err
	}
	if err := aquila.ValidateBiCCPolicy(biccPolicy); err != nil {
		return err
	}
	g, release, err := obtainGraph(graphPath, genKind, scale, seed, threads)
	if err != nil {
		return err
	}
	lg.Info("graph ready", "vertices", g.NumVertices(), "arcs", g.NumArcs())

	eng := aquila.NewDirectedEngine(g, aquila.Options{
		Threads:          threads,
		DisablePartial:   noPartial,
		RebuildThreshold: rebuild,
		CCPolicy:         ccPolicy,
		SCCPolicy:        sccPolicy,
		BiCCPolicy:       biccPolicy,
	})
	srv := aquila.NewServer(eng, aquila.ServerConfig{
		MaxInFlight: maxInFly,
		MaxQueue:    maxQueue,
	})
	cfg := httpd.Config{
		DefaultTimeout: defTimeout,
		MaxTimeout:     maxTimeout,
		RetainEpochs:   retain,
	}
	if !quiet {
		cfg.AccessLog = lg
	}
	front := httpd.New(srv, cfg)

	hs := &http.Server{
		Addr:        listen,
		Handler:     front.Handler(),
		BaseContext: front.BaseContext,
	}

	errc := make(chan error, 1)
	go func() {
		lg.Info("listening", "addr", listen)
		errc <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		lg.Info("shutting down", "signal", s.String(), "grace", grace)
	}

	// Stop accepting and drain in-flight handlers for the grace window; then
	// cancel the drain context so any kernel still running aborts at its next
	// cancellation checkpoint instead of outliving the process.
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err = hs.Shutdown(ctx)
	front.Close()
	// Every kernel has drained (or been cancelled past its last checkpoint),
	// so nothing references the base graph's CSR slices any more: if the graph
	// aliases an mmap'd .aqg container, unmap it before exiting.
	if rerr := release(); rerr != nil {
		lg.Warn("releasing graph mapping", "err", rerr)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("grace window expired; cancelled remaining kernels",
			"in_flight", front.InFlight())
		return nil
	}
	lg.Info("drained cleanly")
	return err
}

// obtainGraph mirrors cmd/aquila: load a graph file through the shared
// auto-detecting loader (.aqg containers mmap'd, text formats streamed) or
// generate a synthetic graph. The returned release func unmaps an
// mmap-backed graph; call it only after every kernel has drained.
func obtainGraph(path, kind string, scale int, seed uint64, threads int) (*aquila.Directed, func() error, error) {
	noop := func() error { return nil }
	if path != "" {
		lg, err := cli.LoadDirected(path, threads)
		if err != nil {
			return nil, nil, err
		}
		return lg.Graph, lg.Release, nil
	}
	switch kind {
	case "rmat":
		return gen.RMAT(scale, 16, seed), noop, nil
	case "random":
		n := scale * 1000
		return gen.Random(n, 16*n, seed), noop, nil
	case "social":
		return gen.Social(gen.SocialConfig{
			GiantVertices: scale * 1000, GiantAvgDeg: 6,
			SmallComps: scale * 40, SmallMaxSize: 6,
			Isolated: scale * 20, MutualFrac: 0.4, Seed: seed,
		}), noop, nil
	case "":
		return nil, nil, fmt.Errorf("need -graph FILE or -gen KIND")
	default:
		return nil, nil, fmt.Errorf("unknown generator %q", kind)
	}
}
