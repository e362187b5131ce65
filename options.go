package aquila

import (
	"aquila/internal/bfs"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/scc"
)

// Traversal selects how much of the enhanced-BFS machinery is used for the
// large-component traversals.
type Traversal int

const (
	// TraversalEnhanced (default) uses multi-pivot sampling and the relaxed
	// synchronization schedule (§5.3).
	TraversalEnhanced Traversal = iota
	// TraversalDirOpt uses direction-optimizing BFS without the enhancements.
	TraversalDirOpt
	// TraversalPlain uses plain synchronous top-down parallel BFS.
	TraversalPlain
)

func (t Traversal) mode() bfs.Mode {
	switch t {
	case TraversalPlain:
		return bfs.ModePlain
	case TraversalDirOpt:
		return bfs.ModeDirOpt
	default:
		return bfs.ModeEnhanced
	}
}

// Options configures an Engine. The zero value uses all techniques with
// GOMAXPROCS workers.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Traversal selects the large-task BFS flavour.
	Traversal Traversal
	// DisableTrim turns off trivial-pattern trimming (Fig. 7).
	DisableTrim bool
	// DisableSPO turns off single-parent-only pruning (Fig. 5) in BiCC/BgCC.
	DisableSPO bool
	// DisableAdaptive turns off the large/small task split: everything is
	// computed with the data-parallel method.
	DisableAdaptive bool
	// DisablePartial turns off query transformation: every query is answered
	// from the complete decomposition (the strategy of conventional
	// frameworks the paper compares against in Figs. 12–14).
	DisablePartial bool
	// CCPolicy selects the connected-components matrix cell. "" or "auto"
	// (the default) picks the cell adaptively from cheap graph statistics at
	// solve time; any other value is a cc.ParsePolicy spec: "pipeline" for
	// the classic trim+BFS+LP cell, or "sampling+finish" with sampling none
	// or afforest and finish uf-async or uf-rem (e.g. "afforest+uf-async").
	// Every cell returns the same canonical labeling, so the choice is
	// performance-only. An unparseable spec degrades to "auto" (NewEngine
	// cannot error); front-ends validate with ValidateCCPolicy first.
	CCPolicy string
	// SCCPolicy selects the strongly-connected-components matrix cell. ""
	// or "auto" (the default) picks the cell adaptively from the directed-
	// graph probe (cheap statistics plus a bounded post-trim liveness scan)
	// at solve time; any other value is an scc.ParsePolicy spec ("coloring",
	// "multireach", or the alias "pipeline" for the classic paper cell;
	// DisableAdaptive turns the coloring cell into the BFS-only baseline).
	// Every cell returns the same canonical labeling, so the choice is
	// performance-only; only directed engines consult it. An unparseable
	// spec degrades to "auto" (NewEngine cannot error); front-ends validate
	// with ValidateSCCPolicy first.
	SCCPolicy string
	// BiCCPolicy selects the biconnected-components matrix cell. "" or
	// "auto" (the default) picks the cell adaptively from the undirected
	// probe (cheap statistics plus a bounded BFS-depth sample) at solve
	// time; any other value is a bicc.ParsePolicy spec ("constrained",
	// "skeleton", or the alias "pipeline" for the classic paper cell).
	// Every cell returns the same canonical AP set and block partition, so
	// the choice is performance-only. An unparseable spec degrades to
	// "auto" (NewEngine cannot error); front-ends validate with
	// ValidateBiCCPolicy first.
	BiCCPolicy string
	// RebuildThreshold controls when Apply falls back to a full static
	// recomputation: once the undirected edges inserted since the last
	// rebuild exceed RebuildThreshold × the edge count at that rebuild,
	// Apply materializes the graph and reruns the static CC pipeline,
	// reseeding the incremental union-find in a freshly flattened state.
	// In dynamic mode (after the first delete op) the budget counts inserts
	// plus deletes, and the rebuild re-canonicalizes the cached labels
	// through the static pipeline while the spanning forest stays
	// authoritative. 0 means the default (0.25); negative values disable
	// automatic rebuilds. The pending signed delta is then still folded
	// into the base CSRs whenever it grows to the base's size.
	RebuildThreshold float64
	// DisableDynamic pins the engine to the monotone insert-only incremental
	// layer: batches containing delete operations are rejected with
	// ErrDeletesDisabled instead of promoting to the dynamic spanning
	// forest. Deployments that depend on monotone connectivity (a Connected
	// answer never later revoked) set this as a guard rail.
	DisableDynamic bool
}

// validatePolicy reports whether spec is an acceptable policy value: "",
// "auto", or a spec parse accepts.
func validatePolicy[P any](spec string, parse func(string) (P, error)) error {
	if spec == "" || spec == "auto" {
		return nil
	}
	_, err := parse(spec)
	return err
}

// ValidateCCPolicy reports whether s is an acceptable Options.CCPolicy value:
// "", "auto", or a parseable matrix-cell spec. Front-ends call this to reject
// a bad -cc-policy before building an engine.
func ValidateCCPolicy(s string) error { return validatePolicy(s, cc.ParsePolicy) }

// ValidateSCCPolicy reports whether s is an acceptable Options.SCCPolicy
// value: "", "auto", or a parseable matrix-cell spec. Front-ends call this
// to reject a bad -scc-policy before building an engine.
func ValidateSCCPolicy(s string) error { return validatePolicy(s, scc.ParsePolicy) }

// ValidateBiCCPolicy reports whether s is an acceptable Options.BiCCPolicy
// value: "", "auto", or a parseable matrix-cell spec. Front-ends call this
// to reject a bad -bicc-policy before building an engine.
func ValidateBiCCPolicy(s string) error { return validatePolicy(s, bicc.ParsePolicy) }

// defaultRebuildThreshold is the delta fraction at which patching the
// union-find stops paying off versus one fresh decomposition.
const defaultRebuildThreshold = 0.25

// rebuildThreshold resolves the knob: the returned value is the effective
// fraction, with 0 meaning "rebuilds disabled".
func (o Options) rebuildThreshold() float64 {
	switch {
	case o.RebuildThreshold == 0:
		return defaultRebuildThreshold
	case o.RebuildThreshold < 0:
		return 0
	default:
		return o.RebuildThreshold
	}
}
