package scc

import "fmt"

// Tail names the strategy that resolves what the trims and the giant FW-BW
// sweep leave behind — the long tail of small and medium SCCs that dominates
// SCC running time on graphs with rich cycle structure. Mirroring the CC
// matrix, each tail is one cell of the SCC policy matrix; every cell emits
// the same min-id canonical labeling, so the choice is performance-only.
type Tail uint8

const (
	// TailColoring is the paper's §6.2 pipeline, byte-identical to the
	// pre-matrix kernel: iterated trims, FW-BW for the giant SCC, then the
	// coloring method (forward max-label propagation + one backward BFS per
	// color root) for the remainder. The Fig. 10 ablation toggles
	// (Options.NoTrim, Options.NoAdaptive) keep their exact meaning inside
	// this cell: NoAdaptive runs the BFS-only baseline, repeated FW-BW from
	// the highest-degree live pivot, in place of the coloring tail.
	TailColoring Tail = iota
	// TailMultiReach resolves the remainder with batched multi-source
	// reachability (Wang et al., PPoPP '23): each round runs simultaneous
	// forward and backward min-rank ownership propagation from a batch of
	// pivots over hash-bag frontiers with VGC hub-row splitting, peels every
	// pivot-intersection SCC, and refines the survivors' subproblems by
	// their reachability pattern.
	TailMultiReach

	numTail = iota
)

func (t Tail) String() string {
	switch t {
	case TailColoring:
		return "coloring"
	case TailMultiReach:
		return "multireach"
	default:
		return fmt.Sprintf("tail(%d)", uint8(t))
	}
}

// Policy selects one cell of the SCC matrix. The zero value is the classic
// coloring pipeline, so existing callers of Run keep their exact behavior.
type Policy struct {
	Tail Tail
}

// PolicyColoring is the named cell for the paper pipeline.
var PolicyColoring = Policy{Tail: TailColoring}

// PolicyMultiReach is the named cell for the batched multi-reachability tail.
var PolicyMultiReach = Policy{Tail: TailMultiReach}

func (p Policy) String() string { return p.Tail.String() }

// Valid reports whether the policy names a real matrix cell.
func (p Policy) Valid() error {
	if p.Tail >= numTail {
		return fmt.Errorf("scc: unknown tail strategy %d", p.Tail)
	}
	return nil
}

// Policies enumerates every cell in a fixed order: the matrix harness, the
// fuzzer and the benchmark sweep all iterate this.
func Policies() []Policy {
	out := make([]Policy, 0, numTail)
	for t := Tail(0); t < numTail; t++ {
		out = append(out, Policy{Tail: t})
	}
	return out
}

// ParsePolicy parses a policy spec: "coloring" (alias "pipeline") or
// "multireach". It is the single validator behind every
// user-facing -scc-policy surface; "auto" is not a cell and is handled by
// callers before parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "coloring", "pipeline":
		return PolicyColoring, nil
	case "multireach":
		return PolicyMultiReach, nil
	default:
		return Policy{}, fmt.Errorf("scc: unknown policy %q (want coloring, multireach, or the alias pipeline)", s)
	}
}
