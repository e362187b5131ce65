package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	names := map[string]bool{}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if names[d.Name] || !valid.MatchString(d.Name) {
			t.Errorf("metric name %q repeated or malformed", d.Name)
		}
		names[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower", endToEnd[0])
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
}

// TestSmoke builds this command and aquilad, runs every workload on tiny
// graphs, untraced and traced, and checks that every metric of
// BENCHMARK.json is printed with its unit and that the final line is the
// result object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots aquilad; skipped under -short")
	}
	work := t.TempDir()
	// The command re-executes itself for its measured child processes, so
	// it runs as its own binary, not inside the test binary.
	bench, aquilad := filepath.Join(work, "bench"), filepath.Join(work, "aquilad")
	for _, b := range [][2]string{{bench, "."}, {aquilad, "aquila/cmd/aquilad"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b[1], err, out)
		}
	}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command(bench, "-smoke", "-seed", "3", "-seconds", "2", "-trace", trace,
			"-work", work, "-aquilad", aquilad)
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, out.String())
		}
		text := out.String()
		for _, w := range workloads {
			if !regexp.MustCompile(`(?m)^== ` + w.Name + ` .* failed 0 `).MatchString(text) {
				t.Errorf("trace %s: no clean header for %s", trace, w.Name)
			}
		}
		for _, d := range printedDefs(trace == "1") {
			row := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + `\s+` + regexp.QuoteMeta(d.Unit) + `\s+\S+\s+\S+\s+\S+\s+\d+\s+\S+$`)
			if n := len(row.FindAllString(text, -1)); n != len(workloads) {
				t.Errorf("trace %s: %s printed with unit %s %d times, want %d", trace, d.Name, d.Unit, n, len(workloads))
			}
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(defsFor(trace == "1")) {
			t.Errorf("trace %s: result %+v", trace, last)
		}
	}
}
