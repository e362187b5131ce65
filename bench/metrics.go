package main

import (
	"math"
	"slices"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none. TestBenchmarkJSON
// keeps this table and BENCHMARK.json identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the gated metrics: an untraced run reports them for every
// workload, and a change may not worsen one by more than its bound. Only
// metrics whose run-to-run spread on the 2-thread reference host stays well
// inside a bound of at most 0.25 are gated; README.md gives the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// ungated are end-to-end metrics every run measures and prints but that are
// not gated: across seeds their spread on the shared reference host reaches
// 0.2–0.5 of the median, wider than any admissible bound, because the host's
// speed drifts by about that much from minute to minute. They lead the
// per-layer list, so a traced run reports them too.
var ungated = []metricDef{
	{"cc_s", "s", "lower", 0},
	{"scc_s", "s", "lower", 0},
	{"bicc_s", "s", "lower", 0},
	{"bgcc_s", "s", "lower", 0},
	{"connected_s", "s", "lower", 0},
	{"largest_s", "s", "lower", 0},
	{"aps_s", "s", "lower", 0},
	{"apply_p50_ms", "ms", "lower", 0},
	{"apply_p90_ms", "ms", "lower", 0},
	{"decomp_p50_ms", "ms", "lower", 0},
	{"peak_rps", "1/s", "higher", 0},
}

// perLayer are the metrics a traced run prints for every workload: the
// ungated end-to-end metrics, then the layer metrics, each measured around
// one public call into one layer (see README.md for which end-to-end metric
// each should move).
var perLayer = append(slices.Clip(ungated), []metricDef{
	{"graph.load_s", "s", "lower", 0},
	{"graph.undirect_s", "s", "lower", 0},
	{"policy.cc_probe_s", "s", "lower", 0},
	{"policy.scc_probe_s", "s", "lower", 0},
	{"policy.bicc_probe_s", "s", "lower", 0},
	{"cc.solve_s", "s", "lower", 0},
	{"cc.trimmed", "count", "higher", 0},
	{"cc.largest_by_bfs", "count", "higher", 0},
	{"cc.small_by_lp", "count", "lower", 0},
	{"cc.sample_merges", "count", "higher", 0},
	{"cc.finish_rows", "count", "lower", 0},
	{"bfs.giant_reach_s", "s", "lower", 0},
	{"scc.solve_s", "s", "lower", 0},
	{"scc.trimmed", "count", "higher", 0},
	{"scc.giant_size", "count", "higher", 0},
	{"scc.coloring_rounds", "count", "lower", 0},
	{"scc.multireach_rounds", "count", "lower", 0},
	{"scc.multireach_pivots", "count", "lower", 0},
	{"bicc.solve_s", "s", "lower", 0},
	{"bicc.aponly_s", "s", "lower", 0},
	{"bicc.candidates", "count", "lower", 0},
	{"bicc.skipped_trim", "count", "higher", 0},
	{"bicc.skipped_spo", "count", "higher", 0},
	{"bicc.ran", "count", "lower", 0},
	{"bicc.useful_ratio", "ratio", "higher", 0},
	{"bgcc.solve_s", "s", "lower", 0},
	{"bgcc.candidates", "count", "lower", 0},
	{"bgcc.skipped_trim", "count", "higher", 0},
	{"bgcc.skipped_spo", "count", "higher", 0},
	{"bgcc.ran", "count", "lower", 0},
	{"bgcc.useful_ratio", "ratio", "higher", 0},
	{"trim.pendants_s", "s", "lower", 0},
	{"engine.cc_self_s", "s", "lower", 0},
	{"engine.scc_self_s", "s", "lower", 0},
	{"engine.bicc_self_s", "s", "lower", 0},
	{"engine.bgcc_self_s", "s", "lower", 0},
	{"engine.apply_s", "s", "lower", 0},
	{"engine.materialize_s", "s", "lower", 0},
	{"update.new_edges", "count", "higher", 0},
	{"update.merged", "count", "higher", 0},
	{"update.deleted_edges", "count", "higher", 0},
	{"update.split", "count", "higher", 0},
	{"update.rebuilds", "count", "lower", 0},
	{"serve.publish_s", "s", "lower", 0},
	{"serve.connected_s", "s", "lower", 0},
	{"serve.decomp_s", "s", "lower", 0},
	{"serve.sf_hit_ratio", "ratio", "higher", 0},
	{"serve.sf_lookups", "count", "higher", 0},
	{"serve.overloaded", "count", "lower", 0},
	{"httpd.connected_ms", "ms", "lower", 0},
	{"httpd.apply_ms", "ms", "lower", 0},
	{"httpd.decomp_ms", "ms", "lower", 0},
	{"httpd.client_gap_ms", "ms", "lower", 0},
	{"httpd.admission_rejects", "count", "lower", 0},
	{"httpd.errors", "count", "lower", 0},
	{"aquilad.cpu_ms_per_req", "ms", "lower", 0},
	{"aquilad.rss_mb", "MB", "lower", 0},
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_p90_ms", "ms", "lower", 0},
	{"loadgen.read_p99_ms", "ms", "lower", 0},
	{"loadgen.apply_p99_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}...)

// quantile returns the q-quantile of sorted by the "exclusive" method that
// Python's statistics.quantiles uses by default: position h = q·(n+1),
// linear interpolation between the neighbouring order statistics, and linear
// extrapolation from the two end values when h falls outside [1, n]. Using
// the same method means a spread printed here is the spread a reader
// recomputes from the same values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := q * float64(n+1)
	j := min(max(int(math.Floor(h)), 1), n-1)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// stat summarizes the samples behind one printed metric: Value is the
// quantile the metric names (the median unless it is a p90 or p99), Q1 and
// Q3 are the samples' quartiles.
type stat struct {
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func statAt(samples []float64, q float64) stat {
	s := slices.Clone(samples)
	slices.Sort(s)
	return stat{Value: quantile(s, q), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s), Samples: samples}
}

func median(samples []float64) stat { return statAt(samples, 0.5) }

// one wraps a single measured value (a count or a one-shot reading).
func one(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1, Samples: []float64{v}} }
