// Command bench is Aquila's end-to-end benchmark. For each workload it
// generates a graph and an op log from the seed, times cold-engine analytics
// queries in a child process, boots the real aquilad on the generated file,
// drives an open-loop mix and closed-loop peak reads at it over HTTP, checks
// every answer against the serial DFS oracles, and prints every metric by
// name with its unit. With -trace 1 it instead prints the per-layer metrics,
// timed around public calls into each layer, and writes the spans.
//
//	go run . -seed 1                          # all workloads
//	go run . -workload churn -seed 3 -seconds 25 -trace 1
//	go run . compare A.json... -- B.json...
//
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"aquila/internal/baseline/serialdfs"
	"aquila/internal/graph"
	"aquila/internal/httpd"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "child":
			os.Exit(childMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
	work    string
	aquilad string
}

// result is one workload's outcome, as printed and as stored in the record.
type result struct {
	Name      string          `json:"name"`
	WallS     float64         `json:"wall_s"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	Info      map[string]any  `json:"info,omitempty"`
	Problems  []string        `json:"problems,omitempty"`
}

func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced run instead of the end-to-end ones")
	smoke := fs.Bool("smoke", false, "100x smaller graphs, for tests")
	work := fs.String("work", ".bench_build", "directory for generated inputs, binaries, records and traces")
	bin := fs.String("aquilad", "", "aquilad binary (default: go build aquila/cmd/aquilad into -work)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, work: *work, aquilad: *bin}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		run = []workload{w}
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.aquilad == "" {
		o.aquilad = filepath.Join(o.work, "bin", "aquilad")
		cmd := exec.Command("go", "build", "-o", o.aquilad, "aquila/cmd/aquilad")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: building aquilad:", err)
			return 1
		}
	}
	rec := record{Host: hostInfo(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke}
	code := 0
	for _, w := range run {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, *res)
		printResult(stdout, res, o)
		if !res.Correct {
			code = 1
		}
	}
	path := filepath.Join(o.work, "records", recordName(run, o))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing record:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "record:", path)
	last := rec.Workloads[len(rec.Workloads)-1]
	line, _ := json.Marshal(contractLine(&last, o.trace))
	fmt.Fprintln(stdout, string(line))
	return code
}

func recordName(run []workload, o options) string {
	name := "all"
	if len(run) == 1 {
		name = run[0].Name
	}
	if o.trace {
		name += "-trace"
	}
	return fmt.Sprintf("%s-seed%d.json", name, o.seed)
}

// contractLine is the result line BENCHMARK.json's readers parse: every
// metric of the run's kind with its value and unit.
func contractLine(r *result, trace bool) map[string]any {
	ms := map[string]any{}
	for _, d := range defsFor(trace) {
		s := r.Metrics[d.Name]
		ms[d.Name] = map[string]any{"value": s.Value, "unit": d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// defsFor is the metrics the result line carries: the gated end-to-end ones,
// or with trace the per-layer ones.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printedDefs is the metrics the table shows: an untraced run adds the
// ungated end-to-end metrics it measured.
func printedDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return slices.Concat(endToEnd, ungated)
}

func printResult(w io.Writer, r *result, o options) {
	fmt.Fprintf(w, "== %s  seed %d  trace %v  wall %.1fs  attempted %d  failed %d  error_rate %.4g\n",
		r.Name, o.seed, o.trace, r.WallS, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "%-24s %-6s %12s %12s %12s %7s  %s\n", "metric", "unit", "value", "q1", "q3", "n", "bound")
	for _, d := range printedDefs(o.trace) {
		s := r.Metrics[d.Name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		fmt.Fprintf(w, "%-24s %-6s %12.6g %12.6g %12.6g %7d  %s\n", d.Name, d.Unit, s.Value, s.Q1, s.Q3, s.N, bound)
	}
	if len(r.Info) > 0 {
		buf, _ := json.Marshal(r.Info)
		fmt.Fprintf(w, "info %s\n", buf)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}

// shares splits the measured seconds between the phases.
type shares struct{ analytics, open, peak, replay time.Duration }

func phaseShares(w workload, o options) shares {
	total := float64(o.seconds) * float64(time.Second)
	scale := 1.0
	var replay time.Duration
	if o.trace {
		scale = 0.8
		replay = time.Duration(0.2 * total)
	}
	return shares{
		analytics: time.Duration(w.AnalyticsShare * scale * total),
		open:      time.Duration(w.OpenShare * scale * total),
		peak:      time.Duration((1 - w.AnalyticsShare - w.OpenShare) * scale * total),
		replay:    replay,
	}
}

// peakWindows is how many closed-loop windows the peak phase is cut into;
// peak_rps is their median.
const peakWindows = 5

// coldBoots is how many times aquilad is started from cold for setup_s.
const coldBoots = 5

func runWorkload(w workload, o options) (*result, error) {
	began := time.Now()
	res := &result{Name: w.Name, Metrics: map[string]stat{}, Info: map[string]any{}}
	dir := filepath.Join(o.work, fmt.Sprintf("run-%s-%d-%d", w.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sh := phaseShares(w, o)

	// Inputs: the graph file, the op log and the oracle answers, all from
	// the seed. The generator's garbage stays in this process; the
	// measured processes only read the files.
	g := w.Graph(subSeed(o.seed, w.Name, 0), o.smoke)
	gpath := filepath.Join(dir, "graph.aqg")
	if w.Text {
		gpath = filepath.Join(dir, "graph.txt")
	}
	if err := writeGraph(gpath, g, w.Text); err != nil {
		return nil, err
	}
	p := makePlan(g, w.Mix, sh.open, subSeed(o.seed, w.Name, 1))
	ppath := filepath.Join(dir, "plan.json")
	if err := writePlan(ppath, p); err != nil {
		return nil, err
	}
	want := oracleAnswers(g)
	final := serialdfs.CC(graph.Undirect(graph.BuildDirected(p.Vertices, p.final)))
	finalComps := countLabels(final)
	res.Info["vertices"], res.Info["arcs"] = g.NumVertices(), g.NumArcs()
	g, p.final = nil, nil
	runtime.GC()

	// Analytics: cold-engine rounds in a child process.
	var an analyticsOut
	if err := child(&an, "analytics", "-graph", gpath, "-text="+strconv.FormatBool(w.Text),
		"-budget", sh.analytics.String(), "-trace="+strconv.FormatBool(o.trace)); err != nil {
		return nil, fmt.Errorf("analytics: %w", err)
	}
	for i, a := range an.Answers {
		res.Attempted += len(classes)
		if a != want {
			res.fail(1, "analytics round %d answered %+v, oracle %+v", i, a, want)
		}
	}
	res.Info["analytics_rounds"] = len(an.Answers)
	res.Info["analytics_rss_mb"] = an.RSSMB
	res.Info["host_calib_ms"] = median(an.Calib).Value
	if len(an.Cells) > 0 {
		res.Info["cells"] = an.Cells
	}

	// Serving: cold boots for setup_s, then one daemon for the loops.
	var boots []float64
	if !o.trace {
		for i := 0; i < coldBoots; i++ {
			d, dt, err := startDaemon(o.aquilad, gpath)
			if err != nil {
				return nil, err
			}
			boots = append(boots, dt.Seconds())
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	d, _, err := startDaemon(o.aquilad, gpath)
	if err != nil {
		return nil, err
	}
	sv, err := serve(d, p, final, finalComps, sh, o, res)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// The end-to-end measurements every run makes; analytics times come from
	// the untraced rounds only.
	m := res.Metrics
	for _, c := range classes {
		m[c+"_s"] = median(an.Times[c])
	}
	lat := map[string][]float64{}
	for _, s := range sv.samples {
		if s.Err == nil {
			lat[s.Kind] = append(lat[s.Kind], float64(s.Lat)/1e6)
		}
	}
	m["read_p50_ms"] = statAt(lat["read"], 0.5)
	m["read_p90_ms"] = statAt(lat["read"], 0.9)
	m["apply_p50_ms"] = statAt(lat["apply"], 0.5)
	m["apply_p90_ms"] = statAt(lat["apply"], 0.9)
	m["decomp_p50_ms"] = statAt(lat["decomp"], 0.5)
	m["peak_rps"] = median(sv.rps)
	m["peak_rss_mb"] = one(sv.hwmMB)
	res.Info["read_p99_ms"] = statAt(lat["read"], 0.99).Value
	res.Info["apply_p99_ms"] = statAt(lat["apply"], 0.99).Value

	if o.trace {
		var rep replayOut
		if err := child(&rep, "replay", "-graph", gpath, "-text="+strconv.FormatBool(w.Text),
			"-plan", ppath, "-budget", sh.replay.String()); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if rep.PromoteS > 0 {
			res.Info["dyn.promote_s"] = rep.PromoteS
		}
		layerMetrics(res, &an, &rep, sv)
		path, err := writeTrace(o, w.Name, &an, &rep, sv)
		if err != nil {
			return nil, err
		}
		res.Info["trace_file"] = path
	} else {
		m["setup_s"] = median(boots)
	}
	for _, def := range printedDefs(o.trace) {
		s, ok := res.Metrics[def.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		s.Unit = def.Unit
		res.Metrics[def.Name] = s
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// served is what the serving phase measured.
type served struct {
	samples       []sample
	upd           updateTotals
	before, after httpd.MetricsSnapshot
	rps           []float64
	peakReqs      int
	cpuMS         float64
	hwmMB, rssMB  float64
	decompKinds   []string // /metrics kinds of the decomposition endpoints
}

// serve drives the open loop, the final-epoch checks and the peak windows
// against a running daemon.
func serve(d *daemon, p *plan, final []uint32, finalComps int, sh shares, o options, res *result) (*served, error) {
	sv := &served{}
	c := newConn(d.base)
	defer c.close()
	// The first read computes epoch 0's labels; the churn warm-up batch
	// promotes the engine to the dynamic forest. Neither is timed.
	if err := sendOp(c, op{Kind: "read"}, nil); err != nil {
		return nil, fmt.Errorf("warm-up read: %w", err)
	}
	applies := 0
	if p.Warmup != nil {
		if err := sendOp(c, *p.Warmup, nil); err != nil {
			return nil, fmt.Errorf("warm-up apply: %w", err)
		}
		applies++
	}
	var err error
	if sv.before, err = scrape(d.base); err != nil {
		return nil, err
	}
	sv.samples, sv.upd = openLoop(d.base, p.Ops)
	if sv.after, err = scrape(d.base); err != nil {
		return nil, err
	}
	for _, s := range sv.samples {
		res.Attempted++
		if s.Kind == "apply" {
			applies++
		}
		if s.Err != nil {
			res.fail(1, "%s: %v", s.Kind, s.Err)
		}
	}
	pairs := 1000
	if o.smoke {
		pairs = 100
	}
	att, failed, msgs := checkFinal(d.base, uint64(applies), final, finalComps, pairs, o.seed)
	res.Attempted += att
	if failed > 0 {
		res.fail(failed, "%d final-epoch checks failed: %s", failed, strings.Join(msgs, "; "))
	}

	cpu0 := cpuMillis(d.pid())
	rps, att, failed := peak(d.base, final, peakWindows, sh.peak/peakWindows, o.seed)
	sv.cpuMS = cpuMillis(d.pid()) - cpu0
	sv.rps, sv.peakReqs = rps, att
	res.Attempted += att
	if failed > 0 {
		res.fail(failed, "%d peak reads failed or disagreed with the oracle", failed)
	}
	sv.hwmMB = vmKB(d.pid(), "VmHWM") / 1024
	sv.rssMB = vmKB(d.pid(), "VmRSS") / 1024
	for _, o := range p.Ops {
		kind := strings.TrimPrefix(o.Path, "/v1/")
		if o.Kind == "decomp" && !slices.Contains(sv.decompKinds, kind) {
			sv.decompKinds = append(sv.decompKinds, kind)
		}
	}
	return sv, nil
}
