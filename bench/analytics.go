package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"aquila"
	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/graph"
	"aquila/internal/scc"
	"aquila/internal/stats"
	"aquila/internal/trim"
)

// classes are the analytics query classes, each timed on a cold engine. scc
// runs on the directed engine; the others on a fresh undirected engine over
// the round's undirected view.
var classes = []string{"scc", "cc", "bicc", "bgcc", "connected", "largest", "aps"}

// analyticsOut is what the analytics child reports to the orchestrator.
type analyticsOut struct {
	// Times holds, per class and per round, the cold-engine query time in
	// seconds; Untraced rounds only.
	Times map[string][]float64 `json:"times"`
	// Load and Ready are per-round ingest times: file to graph, and
	// NewDirectedEngine (which builds the undirected view).
	Load  []float64 `json:"load"`
	Ready []float64 `json:"ready"`
	// Calib holds the host probe's time in ms before each round.
	Calib   []float64 `json:"calib"`
	Answers []answers `json:"answers"`
	RSSMB   float64   `json:"rss_mb"`
	// Layer holds per-layer samples and Counters the kernels' work counts,
	// both from traced rounds; Cells the matrix cells the probes chose.
	Layer    map[string][]float64 `json:"layer,omitempty"`
	Counters map[string]float64   `json:"counters,omitempty"`
	Cells    map[string]string    `json:"cells,omitempty"`
	Spans    []span               `json:"spans,omitempty"`
	// Traced holds the Engine-call times of traced rounds, for the tracing
	// overhead.
	Traced map[string][]float64 `json:"traced,omitempty"`
}

// loadGraph reads a workload graph the way the workload ships it.
func loadGraph(path string, text bool) (*graph.Directed, func(), error) {
	if !text {
		c, err := aquila.LoadContainer(path)
		if err != nil {
			return nil, nil, err
		}
		if c.Directed == nil {
			c.Release()
			return nil, nil, fmt.Errorf("%s: not a directed container", path)
		}
		return c.Directed, func() { c.Release() }, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	g, err := aquila.LoadEdgeList(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	return g, func() {}, nil
}

// runAnalytics runs rounds until budget is spent (at least minRounds). With
// traced set, traced and untraced rounds alternate so the tracing overhead
// is measured in the same process.
func runAnalytics(path string, text bool, budget time.Duration, traced bool) (*analyticsOut, error) {
	out := &analyticsOut{Times: map[string][]float64{}, Layer: map[string][]float64{},
		Counters: map[string]float64{}, Cells: map[string]string{}, Traced: map[string][]float64{}}
	tr := newTracer()
	const minRounds = 3
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		trace := traced && r%2 == 1
		if err := analyticsRound(path, text, out, tr, r, trace); err != nil {
			return nil, err
		}
	}
	if traced {
		out.Spans = tr.spans
	} else {
		out.Traced, out.Layer, out.Counters, out.Cells = nil, nil, nil, nil
	}
	out.RSSMB = vmKB(os.Getpid(), "VmHWM") / 1024
	return out, nil
}

func analyticsRound(path string, text bool, out *analyticsOut, tr *tracer, round int, traced bool) error {
	runtime.GC()
	out.Calib = append(out.Calib, calibrate().Seconds()*1e3)
	t := time.Now()
	d, release, err := loadGraph(path, text)
	if err != nil {
		return err
	}
	defer release()
	out.Load = append(out.Load, time.Since(t).Seconds())
	t = time.Now()
	deng := aquila.NewDirectedEngine(d, aquila.Options{})
	out.Ready = append(out.Ready, time.Since(t).Seconds())
	und := deng.Undirected()

	var ans answers
	for i, c := range classes {
		req := round*len(classes) + i
		if traced {
			q := tr.begin(0, req, "query."+c)
			eng := deng
			if c != "scc" {
				eng = aquila.NewEngine(und, aquila.Options{})
			}
			runtime.GC()
			dt := tr.timed(q, req, "engine."+c, func() { query(c, eng, und, &ans) })
			out.Traced[c] = append(out.Traced[c], dt.Seconds())
			replay(c, d, und, tr, q, req, out)
			tr.end(q)
			continue
		}
		// A short class repeats, each time on a fresh engine, until it has
		// run for classTime in this round, so its median rests on as many
		// samples as a long one. SCC needs a fresh directed engine, whose
		// construction undirects the graph, so it runs once.
		var spent time.Duration
		for rep := 0; rep == 0 || (c != "scc" && rep < maxReps && spent < classTime); rep++ {
			eng := deng
			if c != "scc" {
				eng = aquila.NewEngine(und, aquila.Options{})
			}
			a := ans
			runtime.GC()
			t := time.Now()
			query(c, eng, und, &a)
			dt := time.Since(t)
			spent += dt
			out.Times[c] = append(out.Times[c], dt.Seconds())
			if rep == 0 {
				ans = a
			} else if a != ans {
				ans.Unstable = true
			}
		}
	}
	out.Answers = append(out.Answers, ans)
	return nil
}

// classTime and maxReps bound how often a short query class repeats in one
// analytics round.
const (
	classTime = 150 * time.Millisecond
	maxReps   = 10
)

// query runs one class through the public Engine API and records its answer.
func query(class string, e *aquila.Engine, und *graph.Undirected, a *answers) {
	switch class {
	case "scc":
		res, _ := e.SCC()
		a.SCC = res.NumComponents
	case "cc":
		a.CC = e.CC().NumComponents
	case "bicc":
		res := e.BiCC()
		a.Blocks = res.NumBlocks
		a.NumAPs, a.APs = digestAPs(res.IsAP)
	case "bgcc":
		res := e.BgCC()
		a.BgCC = res.NumComponents
		a.NumBridges, a.Bridges = digestBridges(und, res.IsBridge)
	case "connected":
		a.Connected = e.IsConnected()
	case "largest":
		a.Largest = e.LargestCC().Size
	case "aps":
		isAP := make([]bool, und.NumVertices())
		for _, v := range e.ArticulationPoints() {
			isAP[v] = true
		}
		if n, h := digestAPs(isAP); n != a.NumAPs || h != a.APs {
			a.NumAPs = -1 // the partial AP query disagrees with the full BiCC
		}
	}
}

// replay repeats, after a traced Engine call of class c, the public calls the
// engine makes for it: the policy probe and choice, then the kernel with the
// chosen cell. The probe span carries the chosen cell as an attribute.
func replay(c string, d *graph.Directed, und *graph.Undirected, tr *tracer, q, req int, out *analyticsOut) {
	timed := func(name string, f func()) {
		runtime.GC()
		dt := tr.timed(q, req, name, f)
		out.Layer[name+"_s"] = append(out.Layer[name+"_s"], dt.Seconds())
	}
	probe := func(class string, choose func() fmt.Stringer) {
		runtime.GC()
		id := tr.begin(q, req, "policy."+class+"_probe")
		cell := choose().String()
		dt := tr.end(id, "cell", cell)
		out.Layer["policy."+class+"_probe_s"] = append(out.Layer["policy."+class+"_probe_s"], dt.Seconds())
		out.Cells[class] = cell
	}
	counters := func(kv ...any) {
		for i := 0; i+1 < len(kv); i += 2 {
			out.Counters[kv[i].(string)] = float64(kv[i+1].(int))
		}
	}
	switch c {
	case "cc":
		var pol cc.Policy
		probe("cc", func() fmt.Stringer { pol = cc.ChoosePolicy(stats.CheapUndirected(und)); return pol })
		var res *cc.Result
		timed("cc.solve", func() { res = cc.Solve(und, pol, cc.Options{}) })
		st := res.Stats
		counters("cc.trimmed", st.TrimmedOrphans+st.TrimmedPairs, "cc.largest_by_bfs", st.LargestByBFS,
			"cc.small_by_lp", st.SmallByLP, "cc.sample_merges", st.SampleMerges, "cc.finish_rows", st.FinishRows)
	case "scc":
		var pol scc.Policy
		probe("scc", func() fmt.Stringer { pol = scc.ChoosePolicy(stats.ProbeDirected(d, 0)); return pol })
		var res *scc.Result
		timed("scc.solve", func() { res = scc.Solve(d, pol, scc.Options{}) })
		st := res.Stats
		counters("scc.trimmed", st.TrimmedSize1+st.TrimmedSize2, "scc.giant_size", st.GiantSize,
			"scc.coloring_rounds", st.ColoringRounds, "scc.multireach_rounds", st.MultiReachRounds,
			"scc.multireach_pivots", st.MultiReachPivots)
	case "bicc", "aps":
		var pol bicc.Policy
		probe("bicc", func() fmt.Stringer { pol = bicc.ChoosePolicy(stats.ProbeUndirected(und)); return pol })
		if c == "aps" {
			timed("bicc.aponly", func() { bicc.Solve(und, pol, bicc.Options{APOnly: true}) })
			timed("trim.pendants", func() { trim.Pendants(und) })
			return
		}
		var res *bicc.Result
		timed("bicc.solve", func() { res = bicc.Solve(und, pol, bicc.Options{}) })
		st := res.Stats
		counters("bicc.candidates", st.Candidates, "bicc.skipped_trim", st.SkippedTrim,
			"bicc.skipped_spo", st.SkippedSPO, "bicc.ran", st.Ran)
		out.Counters["bicc.useful_ratio"] = ratio(st.PositiveChecks, st.Ran)
	case "bgcc":
		var res *bgcc.Result
		timed("bgcc.solve", func() { res = bgcc.Run(und, bgcc.Options{}) })
		st := res.Stats
		counters("bgcc.candidates", st.Candidates, "bgcc.skipped_trim", st.SkippedTrim,
			"bgcc.skipped_spo", st.SkippedSPO, "bgcc.ran", st.Ran)
		// Each trimmed vertex takes one pendant bridge with it, found without
		// a check; the other bridges are the checks that came out positive.
		out.Counters["bgcc.useful_ratio"] = ratio(max(st.Bridges-st.SkippedTrim, 0), st.Ran)
	case "largest":
		timed("bfs.giant_reach", func() {
			bfs.EnhancedReach(bfs.UndirectedAdj(und), und.MaxDegreeVertex(), nil, bfs.Options{}, bfs.ModeEnhanced)
		})
	}
}

// ratio is num/den, 0 when nothing was attempted; the base is reported next
// to it.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
