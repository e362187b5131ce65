package cc

import (
	"fmt"
	"strings"
)

// Sampling names the first axis of the CC algorithm matrix: the cheap
// pre-pass that unions a subgraph of the edges so the finish phase can skip
// most of the work (ConnectIt's sampling strategies; Afforest is Sutton et
// al.'s subgraph sampling).
type Sampling uint8

const (
	// SampleNone skips the sampling phase: the finish algorithm sees every
	// edge.
	SampleNone Sampling = iota
	// SampleKOut unions each vertex with k pseudo-randomly chosen neighbors,
	// then identifies the provisional largest component so the finish phase
	// can skip its internal edges.
	SampleKOut
	// SampleBFS runs one enhanced BFS from the max-degree vertex and unions
	// the reached set — the paper's data-parallel large-component phase,
	// recast as a sampling strategy whose provisional largest component is
	// exact.
	SampleBFS
	// SampleAfforest is Afforest subgraph sampling: k rounds of "union each
	// vertex with its next neighbor", then provisional-largest detection by
	// frequency sampling.
	SampleAfforest

	numSampling = iota
)

func (s Sampling) String() string {
	switch s {
	case SampleNone:
		return "none"
	case SampleKOut:
		return "kout"
	case SampleBFS:
		return "bfs"
	case SampleAfforest:
		return "afforest"
	default:
		return fmt.Sprintf("sampling(%d)", uint8(s))
	}
}

// Finish names the second axis: the algorithm that completes the partial
// partition left by sampling into the full CC decomposition. Every finish
// skips adjacency rows of vertices inside the provisional largest component
// where the algorithm allows it (edges internal to that component are the
// bulk of a skewed graph and are already unioned).
type Finish uint8

const (
	// FinishEnhancedBFS is the classic Aquila pipeline phase: enhanced BFS
	// from the max-degree pivot for the giant component, then a sweep for the
	// rest. With SampleNone this cell IS the original trim+BFS+LP pipeline,
	// unchanged; after sampling it unions the BFS-reached set into the
	// union-find and sweeps only rows outside (reached ∪ provisional-largest).
	FinishEnhancedBFS Finish = iota
	// FinishLabelProp completes by min-label propagation seeded from the
	// sampled partition (pure parallel label propagation when unsampled).
	FinishLabelProp
	// FinishUFAsync unions every remaining edge through the lock-free CAS
	// union-find (unionfind.Concurrent.Unite), all workers asynchronous.
	FinishUFAsync
	// FinishUFRem is FinishUFAsync with Rem's splicing unite
	// (unionfind.Concurrent.UniteRem): unions fold into the parent-chain
	// walks instead of paying two full Finds per edge.
	FinishUFRem

	numFinish = iota
)

func (f Finish) String() string {
	switch f {
	case FinishEnhancedBFS:
		return "hybrid-bfs"
	case FinishLabelProp:
		return "labelprop"
	case FinishUFAsync:
		return "uf-async"
	case FinishUFRem:
		return "uf-rem"
	default:
		return fmt.Sprintf("finish(%d)", uint8(f))
	}
}

// Policy selects one cell of the Sampling × Finish matrix. The zero value is
// the classic pipeline cell {SampleNone, FinishEnhancedBFS}, so existing
// callers of Run keep their exact behavior.
type Policy struct {
	Sampling Sampling
	Finish   Finish
	// SampleK is the per-vertex neighbor budget of the KOut and Afforest
	// sampling phases; 0 means DefaultSampleK. Ignored by None and BFS.
	SampleK int
}

// DefaultSampleK is the neighbor budget used when Policy.SampleK is 0 — two
// rounds, the Afforest paper's sweet spot.
const DefaultSampleK = 2

// PolicyPipeline is the named cell for the original trim+BFS+LP pipeline.
var PolicyPipeline = Policy{Sampling: SampleNone, Finish: FinishEnhancedBFS}

func (p Policy) String() string {
	return p.Sampling.String() + "+" + p.Finish.String()
}

// Valid reports whether the policy names a real matrix cell.
func (p Policy) Valid() error {
	if p.Sampling >= numSampling {
		return fmt.Errorf("cc: unknown sampling strategy %d", p.Sampling)
	}
	if p.Finish >= numFinish {
		return fmt.Errorf("cc: unknown finish algorithm %d", p.Finish)
	}
	if p.SampleK < 0 {
		return fmt.Errorf("cc: negative SampleK %d", p.SampleK)
	}
	return nil
}

// UnionFind reports whether the cell is one of the six union-find cells:
// sampling none, kout or afforest, finished by uf-async or uf-rem. These
// cells union edges in any order, so SolveDirected runs them on a directed
// graph's out-arcs alone; the others traverse undirected adjacency.
func (p Policy) UnionFind() bool {
	return p.Sampling != SampleBFS && (p.Finish == FinishUFAsync || p.Finish == FinishUFRem)
}

// sampleK resolves the effective neighbor budget.
func (p Policy) sampleK() int {
	if p.SampleK <= 0 {
		return DefaultSampleK
	}
	return p.SampleK
}

// Policies enumerates every cell of the matrix (all Sampling × Finish
// combinations, default SampleK), in a fixed order: the matrix harness, the
// fuzzer and the benchmark sweep all iterate this.
func Policies() []Policy {
	out := make([]Policy, 0, numSampling*numFinish)
	for s := Sampling(0); s < numSampling; s++ {
		for f := Finish(0); f < numFinish; f++ {
			out = append(out, Policy{Sampling: s, Finish: f})
		}
	}
	return out
}

// ParsePolicy parses a policy spec of the form "sampling+finish" (e.g.
// "afforest+uf-async"), or the alias "pipeline" for the classic cell. It is
// the single validator behind every user-facing -cc-policy surface; "auto"
// is not a cell and is handled by callers before parsing.
func ParsePolicy(s string) (Policy, error) {
	if s == "pipeline" {
		return PolicyPipeline, nil
	}
	parts := strings.Split(s, "+")
	if len(parts) != 2 {
		return Policy{}, fmt.Errorf("cc: policy %q: want \"sampling+finish\" (e.g. %q) or \"pipeline\"", s, "afforest+uf-async")
	}
	var p Policy
	switch parts[0] {
	case "none":
		p.Sampling = SampleNone
	case "kout":
		p.Sampling = SampleKOut
	case "bfs":
		p.Sampling = SampleBFS
	case "afforest":
		p.Sampling = SampleAfforest
	default:
		return Policy{}, fmt.Errorf("cc: unknown sampling %q (want none, kout, bfs, afforest)", parts[0])
	}
	switch parts[1] {
	case "hybrid-bfs":
		p.Finish = FinishEnhancedBFS
	case "labelprop", "lp":
		p.Finish = FinishLabelProp
	case "uf-async":
		p.Finish = FinishUFAsync
	case "uf-rem":
		p.Finish = FinishUFRem
	default:
		return Policy{}, fmt.Errorf("cc: unknown finish %q (want hybrid-bfs, labelprop, uf-async, uf-rem)", parts[1])
	}
	return p, nil
}
