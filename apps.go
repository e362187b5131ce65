package aquila

import (
	"context"

	"aquila/internal/apps/betweenness"
	"aquila/internal/apps/condense"
	"aquila/internal/apps/kcore"
)

// Condensation is the SCC-contracted DAG of a directed graph (paper §2.1,
// application 1), supporting topological order and O(1) reachability queries
// after a lazily built index.
type Condensation = condense.DAG

// Condensation contracts the engine's directed graph by its SCCs. The result
// is computed once per epoch and cached.
func (e *Engine) Condensation() (*Condensation, error) {
	if !e.directed {
		return nil, ErrNotDirected
	}
	return e.current(true).condensation(nil)
}

// condensation builds the epoch's condensation in its own cell.
func (sn *Snapshot) condensation(ctx context.Context) (*Condensation, error) {
	return getCell(sn, ctx, &sn.cond, func(cctx context.Context) (*Condensation, error) {
		g, err := sn.directed(cctx)
		if err != nil {
			return nil, err
		}
		return condense.Build(g, sn.eng.sccOptions()), nil
	})
}

// BetweennessCentrality computes exact betweenness centrality over the
// undirected view (paper §2.1, application 2), using the biconnected-
// decomposition strategy — per-block weighted Brandes guided by the
// articulation points — unless partial computation is disabled, in which case
// plain Brandes runs. Scores use the ordered-pair convention; the result is
// cached.
func (e *Engine) BetweennessCentrality() []float64 {
	b, _ := e.current(true).betweenness(nil)
	return b
}

// betweenness computes the epoch's betweenness scores in their own cell.
func (sn *Snapshot) betweenness(ctx context.Context) ([]float64, error) {
	return getCell(sn, ctx, &sn.btw, func(cctx context.Context) ([]float64, error) {
		g, err := sn.undirected(cctx)
		if err != nil {
			return nil, err
		}
		e := sn.eng
		if e.opt.DisablePartial || e.opt.DisableTrim {
			return betweenness.Brandes(g, e.opt.Threads), nil
		}
		return betweenness.Decomposed(g, e.opt.Threads), nil
	})
}

// Coreness returns the k-core decomposition of the undirected view: for each
// vertex, the largest k such that it survives in the k-core. The result is
// cached.
func (e *Engine) Coreness() []int32 {
	c, _ := e.current(true).coreness(nil)
	return c
}

// coreness computes the epoch's k-core decomposition in its own cell.
func (sn *Snapshot) coreness(ctx context.Context) ([]int32, error) {
	return getCell(sn, ctx, &sn.core, func(cctx context.Context) ([]int32, error) {
		g, err := sn.undirected(cctx)
		if err != nil {
			return nil, err
		}
		return kcore.Decompose(g).Coreness, nil
	})
}
