package bench

import (
	"fmt"
	"runtime"

	"aquila/internal/baseline/boostlike"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/baseline/slota"
	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/scc"
)

func modeFor(enhanced bool) bfs.Mode {
	if enhanced {
		return bfs.ModeEnhanced
	}
	return bfs.ModeDirOpt
}

// Fig11 reproduces Figure 11: runtime scalability against thread count for
// the three largest workloads (TW, TM, FR) and the suite average.
func Fig11(cfg *Config) {
	cfg.Defaults()
	ncpu := runtime.GOMAXPROCS(0)
	threads := []int{1, 2, 4, 8, 16, 32, 64}
	fmt.Fprintf(cfg.Out, "Figure 11: Scalability vs. thread count (host has %d hardware thread(s);\n", ncpu)
	fmt.Fprintln(cfg.Out, "beyond that, goroutine counts add scheduling but no parallel speedup).")

	suite := Suite(cfg.Scale)
	big := map[string]bool{"TW": true, "TM": true, "FR": true}
	for _, alg := range []string{"CC", "SCC", "BiCC", "BgCC"} {
		fmt.Fprintf(cfg.Out, "\n[%s] runtime ms per thread count\n", alg)
		header := []string{"Graph"}
		for _, t := range threads {
			header = append(header, fmt.Sprintf("t=%d", t))
		}
		var rows [][]string
		avg := make([]float64, len(threads))
		for _, w := range suite {
			row := []string{w.Abbr}
			for ti, t := range threads {
				ms := cfg.timeMS(fig10Runner(alg, w, t, fig10Step{trim: true, spo: true, adaptive: true, enhancedBFS: true}))
				avg[ti] += ms
				row = append(row, cell(ms, true))
			}
			if big[w.Abbr] {
				rows = append(rows, row)
			}
		}
		avgRow := []string{"Avg(all 11)"}
		for _, a := range avg {
			avgRow = append(avgRow, cell(a/float64(len(suite)), true))
		}
		rows = append(rows, avgRow)
		cfg.table(header, rows)
	}
}

// Fig12 reproduces Figure 12: speedup of the small-XCC query strategy
// ("is the graph connected / strongly connected / biconnected /
// 2-edge-connected?") over (a) complete computation and (b) the
// arbitrary-pivot strategy.
func Fig12(cfg *Config) {
	cfg.Defaults()
	fmt.Fprintln(cfg.Out, "Figure 12: Small-XCC query speedup over (a) complete computation and (b) arbitrary pivot.")
	header := []string{"Graph", "CC(a)", "SCC(a)", "BiCC(a)", "BgCC(a)", "CC(b)", "SCC(b)", "BiCC(b)", "BgCC(b)"}
	var rows [][]string
	for _, w := range Suite(cfg.Scale) {
		row := []string{w.Abbr}
		var aquilaMS [4]float64
		aquilaMS[0] = cfg.timeMS(func() { smallCCAquila(w, cfg.Threads) })
		aquilaMS[1] = cfg.timeMS(func() { smallSCCAquila(w, cfg.Threads) })
		aquilaMS[2] = cfg.timeMS(func() { smallBiCCAquila(w, cfg.Threads) })
		aquilaMS[3] = cfg.timeMS(func() { smallBgCCAquila(w, cfg.Threads) })

		complete := [4]float64{
			cfg.timeMS(func() { cc.Run(w.U, cc.Options{Threads: cfg.Threads}) }),
			cfg.timeMS(func() { scc.Run(w.G, scc.Options{Threads: cfg.Threads}) }),
			cfg.timeMS(func() { bicc.Run(w.U, bicc.Options{Threads: cfg.Threads}) }),
			cfg.timeMS(func() { bgcc.Run(w.U, bgcc.Options{Threads: cfg.Threads}) }),
		}
		for i := range complete {
			row = append(row, ratioCell(complete[i], aquilaMS[i]))
		}
		arbitrary := [4]float64{
			cfg.timeMS(func() { smallCCArbitrary(w, cfg.Threads) }),
			cfg.timeMS(func() { smallSCCArbitrary(w, cfg.Threads) }),
			cfg.timeMS(func() { smallBiCCArbitrary(w, cfg.Threads) }),
			cfg.timeMS(func() { smallBgCCArbitrary(w, cfg.Threads) }),
		}
		for i := range arbitrary {
			row = append(row, ratioCell(arbitrary[i], aquilaMS[i]))
		}
		rows = append(rows, row)
	}
	cfg.table(header, rows)
}

func ratioCell(num, den float64) string {
	if den <= 0 {
		den = 0.0001
	}
	return fmt.Sprintf("%.1fx", num/den)
}

// --- small-XCC strategies ---

// smallCCAquila: trim check first, then one enhanced traversal from a random
// pivot (paper §3, small-XCC strategy).
func smallCCAquila(w Workload, threads int) bool {
	n := w.U.NumVertices()
	if n <= 1 {
		return true
	}
	for v := 0; v < n; v++ {
		if w.U.Degree(graph.V(v)) == 0 {
			return false
		}
	}
	for v := 0; v < n && n > 2; v++ {
		if w.U.Degree(graph.V(v)) == 1 && w.U.Degree(w.U.Neighbors(graph.V(v))[0]) == 1 {
			return false
		}
	}
	rng := gen.NewRNG(uint64(n))
	pivot := graph.V(rng.Intn(n))
	vis := bfs.EnhancedReach(bfs.UndirectedAdj(w.U), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	return vis.Count() == n
}

// smallCCArbitrary: the strategy of existing systems — compute the component
// of an arbitrary pivot (no trim check) and compare with |V|.
func smallCCArbitrary(w Workload, threads int) bool {
	n := w.U.NumVertices()
	if n <= 1 {
		return true
	}
	rng := gen.NewRNG(uint64(n) * 7)
	pivot := graph.V(rng.Intn(n))
	vis := bfs.EnhancedReach(bfs.UndirectedAdj(w.U), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeDirOpt)
	return vis.Count() == n
}

func smallSCCAquila(w Workload, threads int) bool {
	n := w.G.NumVertices()
	for v := 0; v < n; v++ {
		if w.G.InDegree(graph.V(v)) == 0 || w.G.OutDegree(graph.V(v)) == 0 {
			return false
		}
	}
	pivot := graph.V(0)
	fw := bfs.EnhancedReach(bfs.ForwardAdj(w.G), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	if fw.Count() != n {
		return false
	}
	bw := bfs.EnhancedReach(bfs.BackwardAdj(w.G), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	return bw.Count() == n
}

func smallSCCArbitrary(w Workload, threads int) bool {
	n := w.G.NumVertices()
	rng := gen.NewRNG(uint64(n) * 13)
	pivot := graph.V(rng.Intn(n))
	fw := bfs.EnhancedReach(bfs.ForwardAdj(w.G), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeDirOpt)
	if fw.Count() != n {
		return false
	}
	bw := bfs.EnhancedReach(bfs.BackwardAdj(w.G), pivot, nil, bfs.Options{Threads: threads}, bfs.ModeDirOpt)
	return bw.Count() == n
}

// smallBiCCAquila: "is the graph biconnected?" — any pendant (trim pattern)
// disproves it instantly; otherwise run the AP-only reduced computation and
// check for an AP.
func smallBiCCAquila(w Workload, threads int) bool {
	n := w.U.NumVertices()
	for v := 0; v < n; v++ {
		if w.U.Degree(graph.V(v)) <= 1 {
			return false // pendant or orphan: not biconnected (n>2 workloads)
		}
	}
	res := bicc.Run(w.U, bicc.Options{Threads: threads, APOnly: true})
	for _, ap := range res.IsAP {
		if ap {
			return false
		}
	}
	return true
}

// smallBiCCArbitrary: the |V|-BFS strategy without trim/SPO, stopping at the
// first AP (Slota-style sweep driven to the first positive).
func smallBiCCArbitrary(w Workload, threads int) bool {
	res := slota.BiCCBFS(w.U, threads)
	for _, ap := range res.IsAP {
		if ap {
			return false
		}
	}
	return true
}

func smallBgCCAquila(w Workload, threads int) bool {
	n := w.U.NumVertices()
	for v := 0; v < n; v++ {
		if w.U.Degree(graph.V(v)) <= 1 {
			return false
		}
	}
	res := bgcc.Run(w.U, bgcc.Options{Threads: threads, BridgeOnly: true})
	return res.Stats.Bridges == 0
}

func smallBgCCArbitrary(w Workload, threads int) bool {
	res := bgcc.Run(w.U, bgcc.Options{Threads: threads, BridgeOnly: true, NoTrim: true, NoSPO: true})
	return res.Stats.Bridges == 0
}

// Fig13 reproduces Figure 13: speedup of the largest-XCC query over Aquila's
// complete computation.
func Fig13(cfg *Config) {
	cfg.Defaults()
	fmt.Fprintln(cfg.Out, "Figure 13: Largest-XCC query speedup over complete computation.")
	header := []string{"Graph", "CC", "SCC", "BiCC", "BgCC"}
	var rows [][]string
	for _, w := range Suite(cfg.Scale) {
		row := []string{w.Abbr}

		completeCC := cfg.timeMS(func() { cc.Run(w.U, cc.Options{Threads: cfg.Threads}) })
		largestCC := cfg.timeMS(func() { largestCCPartial(w, cfg.Threads) })
		row = append(row, ratioCell(completeCC, largestCC))

		completeSCC := cfg.timeMS(func() { scc.Run(w.G, scc.Options{Threads: cfg.Threads}) })
		largestSCC := cfg.timeMS(func() { largestSCCPartial(w, cfg.Threads) })
		row = append(row, ratioCell(completeSCC, largestSCC))

		completeBiCC := cfg.timeMS(func() { bicc.Run(w.U, bicc.Options{Threads: cfg.Threads}) })
		largestBiCC := cfg.timeMS(func() { bicc.Run(w.U, bicc.Options{Threads: cfg.Threads}) })
		row = append(row, ratioCell(completeBiCC, largestBiCC))

		completeBgCC := cfg.timeMS(func() { bgcc.Run(w.U, bgcc.Options{Threads: cfg.Threads}) })
		largestBgCC := cfg.timeMS(func() { largestBgCCPartial(w, cfg.Threads) })
		row = append(row, ratioCell(completeBgCC, largestBgCC))

		rows = append(rows, row)
	}
	cfg.table(header, rows)
	fmt.Fprintln(cfg.Out, "(BiCC largest-query ≈ 1.0x here: the checking order already finds small blocks")
	fmt.Fprintln(cfg.Out, " first, matching the paper's 1.03x — see §6.7.)")
}

// largestCCPartial: one traversal from the master pivot; if it covers at
// least half the graph it is provably the largest — stop (paper §3).
func largestCCPartial(w Workload, threads int) int {
	master := w.U.MaxDegreeVertex()
	vis := bfs.EnhancedReach(bfs.UndirectedAdj(w.U), master, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	size := vis.Count()
	if 2*size >= w.U.NumVertices() {
		return size
	}
	return cc.Run(w.U, cc.Options{Threads: threads}).LargestSize
}

func largestSCCPartial(w Workload, threads int) int {
	label := make([]uint32, w.G.NumVertices())
	for i := range label {
		label[i] = graph.NoVertex
	}
	master := w.G.MaxOutDegreeVertex()
	fw := bfs.EnhancedReach(bfs.ForwardAdj(w.G), master, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	bw := bfs.EnhancedReach(bfs.BackwardAdj(w.G), master, nil, bfs.Options{Threads: threads}, bfs.ModeEnhanced)
	size := 0
	for v := 0; v < w.G.NumVertices(); v++ {
		if fw.Get(graph.V(v)) && bw.Get(graph.V(v)) {
			size++
		}
	}
	if 2*size >= w.G.NumVertices() {
		return size
	}
	return scc.Run(w.G, scc.Options{Threads: threads}).LargestSize
}

// largestBgCCPartial: bridges only, then a single filtered traversal for the
// component of the master pivot — skipping the small-component labeling.
func largestBgCCPartial(w Workload, threads int) int {
	res := bgcc.Run(w.U, bgcc.Options{Threads: threads, BridgeOnly: true})
	eids := w.U.EdgeIDs()
	master := w.U.MaxDegreeVertex()
	size := 0
	seen := make([]bool, w.U.NumVertices())
	seen[master] = true
	queue := []graph.V{master}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		size++
		lo, hi := w.U.SlotRange(u)
		for s := lo; s < hi; s++ {
			if res.IsBridge[eids[s]] {
				continue
			}
			v := w.U.SlotTarget(s)
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return size
}

// Fig14 reproduces Figure 14: AP-only and bridge-only query speedups.
func Fig14(cfg *Config) {
	cfg.Defaults()
	fmt.Fprintln(cfg.Out, "Figure 14: Speedup of (a) AP-only and (b) bridge-only computation over other strategies.")

	fmt.Fprintln(cfg.Out, "\n(a) AP only — speedup of Aquila AP-only vs. each strategy")
	header := []string{"Graph", "AquilaComplete", "Slota_BFS", "Slota_LP", "DFS", "Boost"}
	var rows [][]string
	for _, w := range Suite(cfg.Scale) {
		ap := cfg.timeMS(func() { bicc.Run(w.U, bicc.Options{Threads: cfg.Threads, APOnly: true}) })
		row := []string{w.Abbr,
			ratioCell(cfg.timeMS(func() { bicc.Run(w.U, bicc.Options{Threads: cfg.Threads}) }), ap),
			ratioCell(cfg.timeMS(func() { slota.BiCCBFS(w.U, cfg.Threads) }), ap),
			ratioCell(cfg.timeMS(func() { slota.BiCCLP(w.U, cfg.Threads) }), ap),
			ratioCell(cfg.timeMS(func() { serialdfs.APs(w.U) }), ap),
			ratioCell(cfg.timeMS(func() { boostlike.BiCC(w.U) }), ap),
		}
		rows = append(rows, row)
	}
	cfg.table(header, rows)

	fmt.Fprintln(cfg.Out, "\n(b) Bridge only — speedup of Aquila bridge-only vs. each strategy")
	header = []string{"Graph", "AquilaBgCC", "DFS"}
	rows = nil
	for _, w := range Suite(cfg.Scale) {
		br := cfg.timeMS(func() { bgcc.Run(w.U, bgcc.Options{Threads: cfg.Threads, BridgeOnly: true}) })
		row := []string{w.Abbr,
			ratioCell(cfg.timeMS(func() { bgcc.Run(w.U, bgcc.Options{Threads: cfg.Threads}) }), br),
			ratioCell(cfg.timeMS(func() { serialdfs.Bridges(w.U) }), br),
		}
		rows = append(rows, row)
	}
	cfg.table(header, rows)
}
