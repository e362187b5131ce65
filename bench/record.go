package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// record is the JSON file one invocation writes: the host it ran on and
// every workload's metrics with all their samples.
type record struct {
	Host      host     `json:"host"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Smoke     bool     `json:"smoke"`
	Workloads []result `json:"workloads"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	L3         string `json:"l3"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", L3: "unknown"}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		h.L3 = strings.TrimSpace(string(b))
	}
	// The repository root is the working directory when run from there, its
	// parent when run from this module's directory. A checkout without .git
	// (an exported tree) has no commit to report, and git is not asked.
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// child runs this binary's child mode and decodes its JSON answer into out.
func child(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"child"}, args...)...)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// childMain is the measured side of a workload: "analytics" runs the
// cold-engine rounds, "replay" the traced serving replay. It prints one JSON
// object.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench child analytics|replay -graph FILE [flags]")
		return 2
	}
	fs := flag.NewFlagSet("child "+args[0], flag.ContinueOnError)
	gpath := fs.String("graph", "", "graph file")
	text := fs.Bool("text", false, "graph file is a text edge list")
	budget := fs.Duration("budget", time.Second, "time to spend")
	traced := fs.Bool("trace", false, "alternate traced rounds")
	planPath := fs.String("plan", "", "op log to replay")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var out any
	var err error
	switch args[0] {
	case "analytics":
		out, err = runAnalytics(*gpath, *text, *budget, *traced)
	case "replay":
		out, err = runReplay(*gpath, *text, *planPath, *budget)
	default:
		fmt.Fprintf(os.Stderr, "bench child: unknown mode %q\n", args[0])
		return 2
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

// layerMetrics assembles a traced run's per-layer metrics from the analytics
// child, the serving replay and the aquilad scrapes.
func layerMetrics(res *result, an *analyticsOut, rep *replayOut, sv *served) {
	m := res.Metrics
	m["graph.load_s"] = median(an.Load)
	m["graph.undirect_s"] = median(an.Ready)
	for k, xs := range an.Layer {
		m[k] = median(xs)
	}
	// Engine self time is the Engine call minus the probe and the solve
	// replayed beside it. The three are separate calls, so the difference is
	// taken between medians; it can read below zero when the engine adds
	// nothing measurable to the two. The spans in the trace file carry the
	// same decomposition per query.
	for _, c := range []string{"cc", "scc", "bicc", "bgcc"} {
		self := median(an.Traced[c]).Value - m[c+".solve_s"].Value
		if c != "bgcc" {
			self -= m["policy."+c+"_probe_s"].Value
		}
		m["engine."+c+"_self_s"] = one(self)
	}
	for k, v := range an.Counters {
		m[k] = one(v)
	}
	for k, xs := range rep.Layer {
		m[k] = median(xs)
	}
	// Publish cost is the Server's apply minus the bare Engine's on twin
	// engines, again a difference between medians.
	m["serve.publish_s"] = one(m["serve.apply_s"].Value - m["engine.apply_s"].Value)
	m["serve.overloaded"] = one(float64(rep.Overloaded))
	u := sv.upd
	m["update.new_edges"] = one(float64(u.NewEdges))
	m["update.merged"] = one(float64(u.Merged))
	m["update.deleted_edges"] = one(float64(u.DeletedEdges))
	m["update.split"] = one(float64(u.Split))
	m["update.rebuilds"] = one(float64(u.Rebuilds))

	b, a := sv.before, sv.after
	hits, misses := a.Singleflight.Hits-b.Singleflight.Hits, a.Singleflight.Misses-b.Singleflight.Misses
	m["serve.sf_lookups"] = one(float64(hits + misses))
	m["serve.sf_hit_ratio"] = one(ratio(int(hits), int(hits+misses)))
	connMS, _ := handlerMean(b, a, "connected")
	applyMS, _ := handlerMean(b, a, "apply")
	decompMS, _ := handlerMean(b, a, sv.decompKinds...)
	m["httpd.connected_ms"] = one(connMS)
	m["httpd.apply_ms"] = one(applyMS)
	m["httpd.decomp_ms"] = one(decompMS)
	var sent, late, reads, applies []float64
	for _, s := range sv.samples {
		late = append(late, float64(s.Late)/1e6)
		switch s.Kind {
		case "read":
			sent = append(sent, float64(s.Sent)/1e6)
			reads = append(reads, float64(s.Lat)/1e6)
		case "apply":
			applies = append(applies, float64(s.Lat)/1e6)
		}
	}
	m["httpd.client_gap_ms"] = one(mean(sent) - connMS)
	m["httpd.admission_rejects"] = one(float64(a.AdmissionRejects - b.AdmissionRejects))
	var errs uint64
	for k, km := range a.Kinds {
		errs += km.Errors - b.Kinds[k].Errors
	}
	m["httpd.errors"] = one(float64(errs))
	m["aquilad.cpu_ms_per_req"] = one(sv.cpuMS / float64(max(sv.peakReqs, 1)))
	m["aquilad.rss_mb"] = one(sv.rssMB)
	m["loadgen.late_p50_ms"] = statAt(late, 0.5)
	m["loadgen.late_p90_ms"] = statAt(late, 0.9)
	m["loadgen.read_p99_ms"] = statAt(reads, 0.99)
	m["loadgen.apply_p99_ms"] = statAt(applies, 0.99)

	var traced, plain float64
	for _, c := range classes {
		traced += median(an.Traced[c]).Value
		plain += median(an.Times[c]).Value
	}
	m["trace.overhead_frac"] = one(traced/plain - 1)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// selfTotal is one span name's share of a trace: how often it ran and the
// self time it accumulated.
type selfTotal struct {
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
}

// writeTrace stores a traced run's spans, their self times by name, and the
// aquilad /metrics scrapes around the open loop.
func writeTrace(o options, name string, an *analyticsOut, rep *replayOut, sv *served) (string, error) {
	self := map[string]selfTotal{}
	for _, spans := range [][]span{an.Spans, rep.Spans} {
		st := selfTimes(spans)
		for _, s := range spans {
			t := self[s.Name]
			t.Count++
			t.SelfS += st[s.ID].Seconds()
			self[s.Name] = t
		}
	}
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", name, o.seed))
	return path, writeJSON(path, map[string]any{
		"analytics_spans": an.Spans, "replay_spans": rep.Spans, "self_by_name": self,
		"metrics_before_open_loop": sv.before, "metrics_after_open_loop": sv.after,
	})
}
