package cc

import (
	"fmt"
	"strings"
)

// Sampling names the first axis of the CC algorithm matrix: the cheap
// pre-pass that unions a subgraph of the edges so the finish phase can skip
// most of the work (Afforest is Sutton et al.'s subgraph sampling).
type Sampling uint8

const (
	// SampleNone skips the sampling phase: the finish algorithm sees every
	// edge.
	SampleNone Sampling = iota
	// SampleAfforest is Afforest subgraph sampling: afforestRounds rounds of
	// "union each vertex with its next neighbor", then provisional-largest
	// detection by frequency sampling.
	SampleAfforest

	numSampling = iota
)

func (s Sampling) String() string {
	switch s {
	case SampleNone:
		return "none"
	case SampleAfforest:
		return "afforest"
	default:
		return fmt.Sprintf("sampling(%d)", uint8(s))
	}
}

// Finish names the second axis: the algorithm that completes the partial
// partition left by sampling into the full CC decomposition. The union-find
// finishes skip adjacency rows of vertices inside the provisional largest
// component (edges internal to that component are the bulk of a skewed graph
// and are already unioned).
type Finish uint8

const (
	// FinishEnhancedBFS is the classic Aquila pipeline phase: enhanced BFS
	// from the max-degree pivot for the giant component, then a sweep for the
	// rest. It runs only unsampled, as the pipeline cell: the original
	// trim+BFS+LP pipeline, unchanged.
	FinishEnhancedBFS Finish = iota
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
}

// PolicyPipeline is the named cell for the original trim+BFS+LP pipeline.
var PolicyPipeline = Policy{Sampling: SampleNone, Finish: FinishEnhancedBFS}

func (p Policy) String() string {
	return p.Sampling.String() + "+" + p.Finish.String()
}

// Valid reports whether the policy names a real matrix cell: the pipeline,
// or a union-find finish behind either sampling.
func (p Policy) Valid() error {
	if p.Sampling >= numSampling {
		return fmt.Errorf("cc: unknown sampling strategy %d", p.Sampling)
	}
	if p.Finish >= numFinish {
		return fmt.Errorf("cc: unknown finish algorithm %d", p.Finish)
	}
	if p.Finish == FinishEnhancedBFS && p.Sampling != SampleNone {
		return fmt.Errorf("cc: %v: the hybrid-bfs finish runs only unsampled, as the pipeline", p)
	}
	return nil
}

// UnionFind reports whether the cell is one of the four union-find cells:
// every cell but the pipeline. These cells union edges in any order, so
// SolveDirected runs them on a directed graph's out-arcs alone; the
// pipeline traverses undirected adjacency.
func (p Policy) UnionFind() bool {
	return p.Finish == FinishUFAsync || p.Finish == FinishUFRem
}

// Policies enumerates every cell of the matrix in a fixed order: the
// pipeline, then {none, afforest} × {uf-async, uf-rem}. The matrix harness,
// the fuzzer and the benchmark sweep all iterate this.
func Policies() []Policy {
	out := append(make([]Policy, 0, 1+numSampling*(numFinish-1)), PolicyPipeline)
	for s := Sampling(0); s < numSampling; s++ {
		for f := FinishUFAsync; f < numFinish; f++ {
			out = append(out, Policy{Sampling: s, Finish: f})
		}
	}
	return out
}

// ParsePolicy parses a policy spec: a cell's String() (e.g.
// "afforest+uf-async"), or the alias "pipeline" for the classic cell. It is
// the single validator behind every user-facing -cc-policy surface; "auto"
// is not a cell and is handled by callers before parsing.
func ParsePolicy(s string) (Policy, error) {
	if s == "pipeline" {
		return PolicyPipeline, nil
	}
	cells := Policies()
	for _, pol := range cells {
		if s == pol.String() {
			return pol, nil
		}
	}
	names := []string{"pipeline"}
	for _, pol := range cells[1:] {
		names = append(names, pol.String())
	}
	return Policy{}, fmt.Errorf("cc: unknown policy %q (want %s)", s, strings.Join(names, ", "))
}
