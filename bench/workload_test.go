package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// inputs writes a workload's graph in both formats and its op log, and
// returns the three files' bytes.
func inputs(t *testing.T, w workload, seed uint64) [3][]byte {
	t.Helper()
	dir := t.TempDir()
	g := w.Graph(subSeed(seed, w.Name, 0), true)
	var out [3][]byte
	for i, text := range []bool{false, true} {
		path := filepath.Join(dir, "g")
		if err := writeGraph(path, g, text); err != nil {
			t.Fatal(err)
		}
		out[i], _ = os.ReadFile(path)
	}
	plan := filepath.Join(dir, "plan.json")
	if err := writePlan(plan, makePlan(g, w.Mix, time.Second, subSeed(seed, w.Name, 1))); err != nil {
		t.Fatal(err)
	}
	out[2], _ = os.ReadFile(plan)
	return out
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	names := [3]string{".aqg", "edge list", "op log"}
	for _, w := range workloads {
		a, b, c := inputs(t, w, 5), inputs(t, w, 5), inputs(t, w, 6)
		for i := range a {
			if len(a[i]) == 0 {
				t.Fatalf("%s: empty %s", w.Name, names[i])
			}
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: %s differs between two runs of seed 5", w.Name, names[i])
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: %s is the same for seeds 5 and 6", w.Name, names[i])
			}
		}
	}
}

// TestMirrorTracksDeletes replays a churn plan's batches on a plain arc set
// and checks the plan's final arcs against it: deletes only name live arcs,
// and every other pick also takes the reverse arc when that is live.
func TestMirrorTracksDeletes(t *testing.T) {
	w, _ := findWorkload("churn")
	g := w.Graph(3, true)
	p := makePlan(g, w.Mix, 2*time.Second, 3)
	live := map[[2]uint32]bool{}
	for _, e := range arcs(g) {
		live[[2]uint32{e.U, e.V}] = true
	}
	reversed := 0
	batches := []op{*p.Warmup}
	for _, o := range p.Ops {
		if o.Kind == "apply" {
			batches = append(batches, o)
		}
	}
	for _, o := range batches {
		for _, e := range o.Ins {
			if e[0] != e[1] {
				live[e] = true
			}
		}
		for i, e := range o.Del {
			if !live[e] {
				t.Fatalf("batch deletes arc %v, which is not live", e)
			}
			delete(live, e)
			if i > 0 && o.Del[i-1] == [2]uint32{e[1], e[0]} {
				reversed++
			}
		}
	}
	if reversed == 0 {
		t.Error("no delete took its reverse arc along; no edge is really cut")
	}
	if len(p.final) != len(live) {
		t.Fatalf("plan ends with %d arcs, replay with %d", len(p.final), len(live))
	}
	for _, e := range p.final {
		if !live[[2]uint32{e.U, e.V}] {
			t.Fatalf("plan's final arc %v is not live", e)
		}
	}
}
