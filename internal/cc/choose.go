package cc

import "aquila/internal/stats"

// chooser thresholds. The constants encode what the BenchmarkCCMatrix sweep
// shows on the synthetic workload classes (see EXPERIMENTS.md "PR 6"): small
// graphs are dominated by fixed overheads, hub-skewed graphs reward Afforest
// row skipping, and near-forests reward Rem's cheap per-edge unite.
const (
	// chooseTinyVertices: below this the pipeline's trims win outright and
	// every cell finishes in microseconds anyway.
	chooseTinyVertices = 1 << 12
	// chooseSkew: MaxDeg/AvgDeg at which a graph counts as hub-dominated
	// (social-tail shape, one giant component worth skipping).
	chooseSkew = 8.0
	// chooseHubAvgDeg: the giant component is only worth sampling when the
	// graph has enough edges for internal-edge skipping to pay.
	chooseHubAvgDeg = 4.0
	// chooseForestAvgDeg: below ~2 the graph is forest-like — components are
	// tiny, no largest component exists, sampling is pure overhead.
	chooseForestAvgDeg = 2.0
)

// ChoosePolicy maps cheap O(|V|) graph statistics onto a matrix cell — the
// paper's adaptive-computation idea lifted from BFS scheduling to
// whole-algorithm selection. It is total: every stats.Cheap value (including
// zero, absurd and NaN-carrying ones, which fail every comparison and fall
// through to a safe default) maps to a valid, runnable cell.
func ChoosePolicy(cs stats.Cheap) Policy {
	switch {
	case cs.Vertices <= chooseTinyVertices || cs.Edges <= 0:
		// Tiny or edgeless: fixed overheads dominate; the trimmed pipeline
		// is exact and cheapest.
		return PolicyPipeline
	case cs.AvgDeg < chooseForestAvgDeg:
		// Forest-like sparse graph: no dominant component to skip, so go
		// straight to the cheapest full sweep.
		return Policy{Sampling: SampleNone, Finish: FinishUFRem}
	case cs.Skew >= chooseSkew && cs.AvgDeg >= chooseHubAvgDeg:
		// Social-tail shape: hubs dominate, the giant component holds most
		// edges — Afforest's skip buys the most here.
		return Policy{Sampling: SampleAfforest, Finish: FinishUFAsync}
	default:
		// Mid-density or dense, mildly skewed: sample, then let Rem's
		// splicing sweep the remainder.
		return Policy{Sampling: SampleAfforest, Finish: FinishUFRem}
	}
}

// ChooseDirectedPolicy picks the cell for a directed graph's WCC from its
// vertex count alone, so choosing reads no adjacency. A tiny graph takes the
// pipeline cell, as ChoosePolicy gives it; any other takes afforest+uf-rem,
// which SolveDirected runs on the out-arcs without the in-CSR or the
// undirected view. On the out-arcs, with no row skipped, that cell was the
// fastest union-find cell, or within a few percent of it, on every class of
// the repository benchmark (EXPERIMENTS.md "PR 23").
func ChooseDirectedPolicy(vertices int) Policy {
	if vertices <= chooseTinyVertices {
		return PolicyPipeline
	}
	return Policy{Sampling: SampleAfforest, Finish: FinishUFRem}
}
