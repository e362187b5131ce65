package aquila

import (
	"aquila/internal/apps/betweenness"
	"aquila/internal/apps/condense"
	"aquila/internal/apps/kcore"
)

// Condensation is the SCC-contracted DAG of a directed graph (paper §2.1,
// application 1), supporting topological order and O(1) reachability queries
// after a lazily built index.
type Condensation = condense.DAG

// Condensation contracts the engine's directed graph by its SCCs. The result
// is computed once and cached.
func (e *Engine) Condensation() (*Condensation, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	if e.condensation == nil {
		// The DAG's vertex-keyed queries (component-of, reachability) must
		// answer in caller ids, so condensation always runs on the
		// original-id graph rather than the reordered compute graph.
		g := e.dir
		if e.perm != nil {
			g = e.origDir
		}
		e.condensation = condense.Build(g, e.sccOptions())
	}
	return e.condensation, nil
}

// BetweennessCentrality computes exact betweenness centrality over the
// undirected view (paper §2.1, application 2), using the biconnected-
// decomposition strategy — per-block weighted Brandes guided by the
// articulation points — unless partial computation is disabled, in which case
// plain Brandes runs. Scores use the ordered-pair convention; the result is
// cached.
func (e *Engine) BetweennessCentrality() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	if e.betweenness == nil {
		g := e.undirectedOf(e.base()).und
		var raw []float64
		if e.opt.DisablePartial || e.opt.DisableTrim {
			raw = betweenness.Brandes(g, e.opt.Threads)
		} else {
			raw = betweenness.Decomposed(g, e.opt.Threads)
		}
		if e.perm != nil {
			raw = remapFloats(raw, e.perm, e.opt.Threads)
		}
		e.betweenness = raw
	}
	return e.betweenness
}

// Coreness returns the k-core decomposition of the undirected view: for each
// vertex, the largest k such that it survives in the k-core. The result is
// cached.
func (e *Engine) Coreness() []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebaseLocked()
	if e.coreness == nil {
		raw := kcore.Decompose(e.undirectedOf(e.base()).und).Coreness
		if e.perm != nil {
			raw = remapInt32s(raw, e.perm, e.opt.Threads)
		}
		e.coreness = raw
	}
	return e.coreness
}
