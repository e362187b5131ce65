package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareMain prints, for every workload and end-to-end metric, each side's
// median and quartiles across its records and a verdict. It exits 1 when a
// gated metric is worse by more than its bound.
func compareMain(args []string, w io.Writer) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	a, err := loadValues(args[:i])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadValues(args[i+1:]); err == nil {
			return printComparison(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 1
}

// loadValues reads records into workload → metric → one value per record.
func loadValues(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rec.Workloads {
			if out[r.Name] == nil {
				out[r.Name] = map[string][]float64{}
			}
			for name, s := range r.Metrics {
				out[r.Name][name] = append(out[r.Name][name], s.Value)
			}
			if v, ok := r.Info[hostProbe.Name].(float64); ok {
				out[r.Name][hostProbe.Name] = append(out[r.Name][hostProbe.Name], v)
			}
		}
	}
	return out, nil
}

// hostProbe is the host-speed probe every record carries; compare prints it
// under each workload, unjudged, so that two sides run on a differently
// loaded host can be told apart.
var hostProbe = metricDef{Name: "host_calib_ms", Unit: "ms", Better: "lower"}

func printComparison(w io.Writer, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-12s %-15s %4s %11s %11s %11s %4s %11s %11s %11s %8s %7s  %s\n", "workload", "metric",
		"nA", "A median", "A q1", "A q3", "nB", "B median", "B q1", "B q3", "change", "spread", "verdict")
	for _, wl := range workloads {
		for _, d := range slices.Concat(endToEnd, ungated, []metricDef{hostProbe}) {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := median(va), median(vb)
			v, change, spread := verdict(d, va, vb)
			if d == hostProbe {
				v = "host speed, not judged"
			}
			if v == "worse" && d.Bound > 0 {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-15s %4d %11.5g %11.5g %11.5g %4d %11.5g %11.5g %11.5g %+7.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, sa.N, sa.Value, sa.Q1, sa.Q3, sb.N, sb.Value, sb.Q1, sb.Q3,
				100*change, 100*spread, v)
		}
	}
	return code
}

// verdict judges side b against side a for one metric. change is the
// relative change of the median, positive when b is worse; spread the wider
// of the two sides' quartile distances relative to their medians. b is
// better only when every b run beats every a run and the medians differ by
// more than a's own spread. For a gated metric, a spread wider than the
// bound leaves anything else unresolved. An ungated metric has no bound, so
// it is worse only by the mirror of the better rule, and otherwise within
// noise.
func verdict(d metricDef, a, b []float64) (v string, change, spread float64) {
	sa, sb := median(a), median(b)
	change = (sb.Value - sa.Value) / sa.Value
	if d.Better == "higher" {
		change = -change
	}
	noise := (sa.Q3 - sa.Q1) / sa.Value
	spread = max(noise, (sb.Q3-sb.Q1)/sb.Value)
	allBetter, allWorse := true, true
	sign := 1.0 // orients values so that lower is better
	if d.Better == "higher" {
		sign = -1
	}
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && sign*x < sign*y
			allWorse = allWorse && sign*x > sign*y
		}
	}
	switch {
	case allBetter && -change > noise:
		return "better", change, spread
	case d.Bound == 0 && allWorse && change > noise:
		return "worse", change, spread
	case d.Bound == 0:
		return "within noise", change, spread
	case spread > d.Bound:
		return "unresolved", change, spread
	case change > d.Bound:
		return "worse", change, spread
	default:
		return "within bound", change, spread
	}
}
