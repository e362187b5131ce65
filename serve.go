package aquila

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aquila/internal/bfs"
	"aquila/internal/bgcc"
	"aquila/internal/bicc"
	"aquila/internal/cc"
	"aquila/internal/gen"
	"aquila/internal/graph"
	"aquila/internal/parallel"
	"aquila/internal/scc"
	"aquila/internal/serve"
)

// snapState is what an epoch captures from the engine: the immutable base
// graph pointers, the epoch's prefix of the signed delta, the connectivity
// census once updates have begun, and the engine's change counters.
type snapState struct {
	base graphSet
	// arcs and edges are the engine's delta logs as of the epoch, capped
	// (d[:n:n]) so that the engine's later appends can never reach them.
	arcs, edges []graph.Change
	// cen is the epoch's census, or nil before the first update, when the
	// epoch solves it on first use. The object is immutable: Apply advances
	// the engine to a new census but never mutates a published one.
	cen *census
	// arcGen and edgeGen are the engine's change counters at capture.
	arcGen, edgeGen uint64
}

// epoch is the graph as of one write and every result computed on it, each
// in its own singleflight cell. The engine captures one per write; its own
// queries and its Server's reach the same epoch through their own Snapshot
// handles, so no view or result is built twice.
type epoch struct {
	eng *Engine
	st  snapState

	dirView serve.Cell[*Directed]
	undView serve.Cell[*Undirected]
	cen     serve.Cell[*census]
	ccRes   serve.Cell[*cc.Result]
	isConn  serve.Cell[bool]
	largest serve.Cell[*LargestResult]
	sccRes  serve.Cell[*scc.Result]
	biccRes serve.Cell[*bicc.Result]
	bgccRes serve.Cell[*bgcc.Result]
	aps     serve.Cell[[]V]
	bridges serve.Cell[[][2]V]
	hist    serve.Cell[map[int]int]
	// Results only the Engine's API asks for.
	cond       serve.Cell[*Condensation]
	btw        serve.Cell[[]float64]
	core       serve.Cell[[]int32]
	strong     serve.Cell[bool]
	largestSCC serve.Cell[*LargestResult]
}

// epochLocked returns the engine's handle on its current epoch, capturing a
// new epoch first when a write or a re-base has happened since the last
// capture. Capture is O(1) beyond the census: no graph is built and no delta
// is copied. Insert-only epochs read the census Apply keeps current; dynamic
// epochs wrap the forest's labels, an O(|V|) walk only after a batch that
// merged or split components. Called under e.mu.
func (e *Engine) epochLocked() *Snapshot {
	if e.snap != nil && !e.stale {
		return e.snap
	}
	if e.dyn != nil && e.cen == nil {
		e.cen = newCensus(ccResultFromLabels(e.dyn.Labels()))
	}
	ep := &epoch{eng: e, st: snapState{
		base:    e.base(),
		arcs:    e.arcLog[:len(e.arcLog):len(e.arcLog)],
		edges:   e.edgeLog[:len(e.edgeLog):len(e.edgeLog)],
		cen:     e.cen,
		arcGen:  e.arcGen,
		edgeGen: e.edgeGen,
	}}
	if e.stats != nil {
		ep.setStats(e.stats)
	}
	if ep.st.cen != nil {
		ep.cen.Seed(ep.st.cen)
	}
	// A view with nothing to merge is the base itself. A directed engine's
	// undirected view may not be built yet, so its cell fills on first use.
	if len(ep.st.arcs) == 0 {
		ep.dirView.Seed(ep.st.base.dir)
	}
	if len(ep.st.edges) == 0 && !e.directed {
		ep.undView.Seed(e.undirectedOf(ep.st.base))
	}
	if e.snap != nil {
		ep.inherit(e.snap.epoch)
	}
	e.snap, e.stale = &Snapshot{epoch: ep}, false
	return e.snap
}

// current returns the engine's current epoch. Queries that walk adjacency
// pass rebase to merge the pending delta into the engine's base first, so
// that their epoch's views are the base itself rather than merged copies.
func (e *Engine) current(rebase bool) *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rebase {
		e.rebaseLocked()
	}
	return e.epochLocked()
}

// inherit takes over from prev, the epoch before ep, every result whose
// input did not change: the SCC results, partial ones included, while no arc
// changed, the 2-connectivity and degree-structure results while no
// undirected edge changed, and the CC results while the census is the same
// one. A largest component found by the §3 traversal stays with its epoch,
// whose census was absent; a census present answers instead.
func (ep *epoch) inherit(prev *epoch) {
	if ep.st.arcGen == prev.st.arcGen {
		keep(&ep.sccRes, &prev.sccRes)
		keep(&ep.cond, &prev.cond)
		keep(&ep.strong, &prev.strong)
		keep(&ep.largestSCC, &prev.largestSCC)
	}
	if ep.st.edgeGen == prev.st.edgeGen {
		keep(&ep.biccRes, &prev.biccRes)
		keep(&ep.bgccRes, &prev.bgccRes)
		keep(&ep.aps, &prev.aps)
		keep(&ep.bridges, &prev.bridges)
		keep(&ep.btw, &prev.btw)
		keep(&ep.core, &prev.core)
	}
	if c, ok := prev.cen.Peek(); ok && c == ep.st.cen {
		keep(&ep.ccRes, &prev.ccRes)
		keep(&ep.hist, &prev.hist)
		if l, ok := prev.largest.Peek(); ok && !l.Partial {
			ep.largest.Seed(l)
		}
	}
}

// husk returns an epoch that holds ep's change counters, census and every
// result a successor may inherit, but no graph. A re-base replaces the
// engine's superseded epoch with it, so the old base is not kept just for
// inheritance.
func (ep *epoch) husk() *epoch {
	c, _ := ep.cen.Peek()
	h := &epoch{eng: ep.eng, st: snapState{cen: c, arcGen: ep.st.arcGen, edgeGen: ep.st.edgeGen}}
	keep(&h.cen, &ep.cen)
	h.inherit(ep)
	return h
}

// keep seeds dst with src's value, if src holds one.
func keep[T any](dst, src *serve.Cell[T]) {
	if v, ok := src.Peek(); ok {
		dst.Seed(v)
	}
}

// setStats attaches st to the cells the served queries answer from.
func (ep *epoch) setStats(st *serve.CellStats) {
	for _, c := range []interface{ SetStats(*serve.CellStats) }{
		&ep.dirView, &ep.undView, &ep.cen, &ep.ccRes, &ep.isConn, &ep.largest,
		&ep.sccRes, &ep.biccRes, &ep.bgccRes, &ep.aps, &ep.bridges, &ep.hist,
	} {
		c.SetStats(st)
	}
}

// ErrOverloaded reports that the serving layer shed a request: every kernel
// slot was busy and the admission queue was full. It is the internal gate's
// sentinel re-exported so callers can classify shed load with errors.Is —
// the CLI renders it as an explicit "overloaded, retry" notice and the HTTP
// front-end maps it to 429 Too Many Requests with a Retry-After hint.
var ErrOverloaded = serve.ErrOverloaded

// ServerConfig tunes a Server. The zero value gives sensible defaults.
type ServerConfig struct {
	// MaxInFlight bounds concurrently executing kernels. Each kernel already
	// parallelizes internally across Options.Threads workers, so the default
	// is GOMAXPROCS divided by the per-kernel thread count (at least 1):
	// enough slots to fill the machine without oversubscribing it.
	MaxInFlight int
	// MaxQueue bounds the FIFO overflow queue behind the kernel slots;
	// requests beyond it fail fast with serve.ErrOverloaded. 0 means
	// 4*MaxInFlight; negative means no queue (shed immediately).
	MaxQueue int
	// DefaultTimeout is applied to queries whose context carries no deadline.
	// 0 means no default timeout.
	DefaultTimeout time.Duration
	// DisableSingleflight makes every query run its own compute instead of
	// coalescing with concurrent identical ones — the ablation knob for
	// measuring what request dedup buys under a query storm.
	DisableSingleflight bool
}

// Server is the concurrent query-serving layer over an Engine (the paper's
// §7 deployment setting: a stream of connectivity queries racing a stream of
// edge updates). It adds three things to the engine's epochs:
//
//   - Published epochs: every query runs against an immutable Snapshot of the
//     graph. Apply publishes the epoch the engine captures right after its
//     write with one atomic pointer swap, so reads never block writes,
//     writes never block reads, and no reader ever observes a torn state.
//     The engine's own queries run on the same epoch, so each result is
//     computed once for both.
//   - Singleflight accounting: an epoch's cells coalesce queries that need
//     the same decomposition into one kernel execution whose result fans out
//     to all waiters, with waiter-refcounted cancellation (the kernel aborts
//     only when every waiter has left). The server counts the hits and
//     misses (SingleflightStats), and DisableSingleflight turns the
//     coalescing off for its queries.
//   - Admission control: kernel executions occupy bounded slots with a FIFO
//     overflow queue, so a query storm degrades into queueing + ErrOverloaded
//     instead of unbounded thread oversubscription. Engine calls take no
//     slot, even on an engine a Server wraps.
//
// Once an Engine is wrapped by a Server, route all updates through
// Server.Apply — direct Engine.Apply calls would bypass epoch publication
// and leave the served snapshot stale (queries stay consistent, but against
// an old epoch until the next Server.Apply).
type Server struct {
	eng  *Engine
	cfg  ServerConfig
	gate *serve.Gate
	// sfStats aggregates hit/miss telemetry from every epoch's result cells
	// (see SingleflightStats).
	sfStats serve.CellStats

	// applyMu serializes writers; the snapshot pointer is the only
	// reader-visible state and is swapped atomically.
	applyMu sync.Mutex
	cur     atomic.Pointer[Snapshot]
}

// NewServer wraps e in a serving layer and publishes epoch 0: the engine's
// current epoch, with whatever it has computed already.
func NewServer(e *Engine, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		per := parallel.Threads(e.opt.Threads)
		cfg.MaxInFlight = max(1, runtime.GOMAXPROCS(0)/per)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Server{eng: e, cfg: cfg, gate: serve.NewGate(cfg.MaxInFlight, cfg.MaxQueue)}
	e.mu.Lock()
	e.stats = &s.sfStats
	sn := e.epochLocked()
	e.mu.Unlock()
	sn.setStats(&s.sfStats) // the epoch may predate the server
	s.cur.Store(&Snapshot{epoch: sn.epoch, srv: s})
	return s
}

// publish makes the epoch the engine captures after a write the current one
// and releases the views of the epoch it supersedes. Called under applyMu.
func (s *Server) publish() {
	prev := s.cur.Load()
	s.cur.Store(&Snapshot{epoch: s.eng.current(false).epoch, srv: s, seq: prev.seq + 1})
	prev.dirView.Drop()
	prev.undView.Drop()
}

// Apply inserts a batch of edges (Engine.Apply semantics) and publishes the
// next epoch. Readers holding older snapshots are unaffected; new Acquire
// calls see the new epoch immediately.
func (s *Server) Apply(batch []Edge) (*ApplyResult, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	res, err := s.eng.Apply(batch)
	if err != nil {
		return nil, err
	}
	s.publish()
	return res, nil
}

// ApplyUpdates applies a mixed insert/delete batch (Engine.ApplyUpdates
// semantics, including the transparent promotion to the dynamic forest on
// the first delete) and publishes the next epoch. Readers holding older
// snapshots still see the pre-delete graph — epoch pinning gives deletion
// exactly the same isolation inserts have always had.
func (s *Server) ApplyUpdates(batch []Update) (*ApplyResult, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	res, err := s.eng.ApplyUpdates(batch)
	if err != nil {
		return nil, err
	}
	s.publish()
	return res, nil
}

// Acquire pins the current snapshot. The snapshot stays valid (and its
// cached decompositions stay warm) for as long as the caller holds it, no
// matter how many epochs are published meanwhile; dropping the reference
// releases it to the garbage collector. There is no explicit unpin.
func (s *Server) Acquire() *Snapshot { return s.cur.Load() }

// Epoch returns the currently published epoch (0 before the first Apply).
func (s *Server) Epoch() uint64 { return s.cur.Load().seq }

// SingleflightStats returns the cumulative hit and miss counts of the
// snapshots' singleflight result cells, across every epoch this server has
// published. A hit is a query answered from a cached (or in-flight) result;
// a miss is one that had to start its own kernel pass. The ratio is the
// dedup win a front-end reports as its singleflight hit rate.
func (s *Server) SingleflightStats() (hits, misses uint64) {
	return s.sfStats.Counts()
}

// qctx applies the server's default timeout to queries without a deadline.
func (s *Server) qctx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		}
	}
	return ctx, func() {}
}

// Connected answers on the current epoch; see Snapshot.Connected.
func (s *Server) Connected(ctx context.Context, u, v V) (bool, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().Connected(ctx, u, v)
}

// CountCC answers on the current epoch; see Snapshot.CountCC.
func (s *Server) CountCC(ctx context.Context) (int, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().CountCC(ctx)
}

// IsConnected answers on the current epoch; see Snapshot.IsConnected.
func (s *Server) IsConnected(ctx context.Context) (bool, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().IsConnected(ctx)
}

// LargestCC answers on the current epoch; see Snapshot.LargestCC.
func (s *Server) LargestCC(ctx context.Context) (*LargestResult, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().LargestCC(ctx)
}

// CC answers on the current epoch; see Snapshot.CC.
func (s *Server) CC(ctx context.Context) (*CCResult, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().CC(ctx)
}

// SCC answers on the current epoch; see Snapshot.SCC.
func (s *Server) SCC(ctx context.Context) (*SCCResult, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().SCC(ctx)
}

// BiCC answers on the current epoch; see Snapshot.BiCC.
func (s *Server) BiCC(ctx context.Context) (*BiCCResult, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().BiCC(ctx)
}

// BgCC answers on the current epoch; see Snapshot.BgCC.
func (s *Server) BgCC(ctx context.Context) (*BgCCResult, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().BgCC(ctx)
}

// CCSizeHistogram answers on the current epoch; see Snapshot.CCSizeHistogram.
func (s *Server) CCSizeHistogram(ctx context.Context) (map[int]int, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().CCSizeHistogram(ctx)
}

// ArticulationPoints answers on the current epoch; see
// Snapshot.ArticulationPoints.
func (s *Server) ArticulationPoints(ctx context.Context) ([]V, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().ArticulationPoints(ctx)
}

// Bridges answers on the current epoch; see Snapshot.Bridges.
func (s *Server) Bridges(ctx context.Context) ([][2]V, error) {
	ctx, cancel := s.qctx(ctx)
	defer cancel()
	return s.Acquire().Bridges(ctx)
}

// Snapshot is one epoch's immutable view of the graph. All queries on a
// snapshot are answered as of its epoch, regardless of concurrent Applies.
// It is the one place a query is answered: the Engine's own queries run on
// the engine's current epoch through the same methods. Each decomposition is
// computed at most once per epoch and cached on it (singleflighted across
// concurrent askers), and the epoch after a write starts with every result
// the write could not change (see Engine.Apply).
//
// An epoch holds its graph as the engine's base CSRs plus its prefix of the
// signed delta. The two views kernels walk — the directed CSRs for SCC, the
// undirected CSR for BiCC, BgCC and the traversals — are merged from those
// on first use, each on its own, and cached only while the epoch is current:
// publishing the next epoch drops them, while cached results stay. A kernel
// on a superseded epoch merges its view again and lets it go afterwards. A
// directed engine's connectivity census reads neither: it is kept current
// by Apply, or solved on the base's directed CSRs.
//
// A Snapshot is safe for concurrent use. It holds no locks between calls and
// never blocks a writer.
type Snapshot struct {
	*epoch
	// srv is the serving layer this handle belongs to, or nil on the
	// engine's own handle, whose queries take no admission slot and always
	// coalesce.
	srv *Server
	seq uint64
}

// Epoch identifies the snapshot's position in the update sequence: epoch k
// reflects exactly the first k Apply batches.
func (sn *Snapshot) Epoch() uint64 { return sn.seq }

// NumVertices returns the vertex count (fixed across epochs: Apply never
// grows the vertex set).
func (sn *Snapshot) NumVertices() int { return sn.eng.n }

// noSingleflight reports whether the server's ablation knob is on.
func (sn *Snapshot) noSingleflight() bool {
	return sn.srv != nil && sn.srv.cfg.DisableSingleflight
}

// getCell is the dedup point for every lazily computed snapshot value: warm
// values return immediately; cold ones compute through the cell's
// singleflight unless the server's ablation knob bypasses it.
func getCell[T any](sn *Snapshot, ctx context.Context, c *serve.Cell[T], compute func(context.Context) (T, error)) (T, error) {
	if sn.noSingleflight() {
		if v, ok := c.Peek(); ok {
			return v, nil
		}
		v, err := compute(ctx)
		if err == nil {
			c.Seed(v)
		}
		return v, err
	}
	// Warm values return from Get's cached branch, so the cell's hit/miss
	// telemetry sees every lookup exactly once.
	v, err := c.Get(ctx, compute)
	// The admission gate can shed a compute a Server request started; an
	// engine call that joined it starts its own, which takes no slot.
	for sn.srv == nil && errors.Is(err, ErrOverloaded) {
		v, err = c.Get(ctx, compute)
	}
	return v, err
}

// cachedCell is getCell's warm branch alone: it counts a hit exactly when
// getCell would, and needs no compute closure, so a warm lookup allocates
// nothing.
func cachedCell[T any](sn *Snapshot, c *serve.Cell[T]) (T, bool) {
	if sn.noSingleflight() {
		return c.Peek()
	}
	return c.Cached()
}

// withSlot runs f inside one admission-gate kernel slot; the engine's own
// handle runs it at once. Slots are only ever taken at the leaves (actual
// kernel executions), never nested, so a slot holder cannot deadlock waiting
// for another slot.
func (sn *Snapshot) withSlot(ctx context.Context, f func() error) error {
	if sn.srv == nil {
		return f()
	}
	if err := sn.srv.gate.Acquire(ctx); err != nil {
		return err
	}
	defer sn.srv.gate.Release()
	return f()
}

// directed returns the epoch's directed view: the base CSRs with the
// epoch's arc delta merged in, once per current epoch. Not gated: it is a
// graph build, not a kernel, and it runs inside callers that already hold a
// slot.
func (sn *Snapshot) directed(ctx context.Context) (*Directed, error) {
	return getCell(sn, ctx, &sn.dirView, func(context.Context) (*Directed, error) {
		return sn.eng.patchDirected(sn.st.base.dir, sn.st.arcs), nil
	})
}

// undirected returns the epoch's undirected view, merged from the base's
// undirected view and the epoch's edge delta; see directed. On a directed
// engine the base's view is built by the first caller on that base and kept
// by its directed CSRs, so every epoch on the base merges into one copy.
func (sn *Snapshot) undirected(ctx context.Context) (*Undirected, error) {
	return getCell(sn, ctx, &sn.undView, func(context.Context) (*Undirected, error) {
		return sn.eng.patchUndirected(sn.eng.undirectedOf(sn.st.base), sn.st.edges), nil
	})
}

// censusGet returns the epoch's connectivity census. Epochs after the first
// update hold theirs from capture. A cold epoch solves CC once, coalesced
// across concurrent callers — this is the batching that turns a query storm
// into one kernel pass — and the engine's first Apply seeds its incremental
// state from the same cell.
func (sn *Snapshot) censusGet(ctx context.Context) (*census, error) {
	if c, ok := cachedCell(sn, &sn.cen); ok {
		return c, nil
	}
	return getCell(sn, ctx, &sn.cen, sn.solveCensus)
}

// solveCensus is a cold epoch's census compute: one CC kernel pass over the
// epoch's graph. Only an epoch before the first update lacks a census, so
// its graph is the base with an empty delta; on a directed engine a
// union-find cell runs on the base's directed CSRs (see Engine.ccSolve).
func (sn *Snapshot) solveCensus(cctx context.Context) (*census, error) {
	var res *cc.Result
	err := sn.withSlot(cctx, func() error {
		res = sn.eng.ccSolve(sn.st.base, cctx)
		return ctxErr(cctx)
	})
	if err != nil {
		return nil, err
	}
	return newCensus(res), nil
}

// Connected reports whether u and v lie in the same connected component as
// of this epoch. O(1) and allocation-free once the epoch's census exists
// (always, after the first Apply): one base label read and one overlay probe
// per endpoint. A cold pre-update snapshot solves the census once, coalesced
// across concurrent callers. Both endpoints must be existing vertices.
func (sn *Snapshot) Connected(ctx context.Context, u, v V) (bool, error) {
	c, err := sn.censusGet(ctx)
	if err != nil {
		return false, err
	}
	return c.connected(u, v), nil
}

// CountCC returns the number of connected components as of this epoch.
func (sn *Snapshot) CountCC(ctx context.Context) (int, error) {
	c, err := sn.censusGet(ctx)
	if err != nil {
		return 0, err
	}
	return c.num, nil
}

// CC returns the complete CC decomposition for this epoch, materialized from
// the census once per epoch.
func (sn *Snapshot) CC(ctx context.Context) (*CCResult, error) {
	return getCell(sn, ctx, &sn.ccRes, func(cctx context.Context) (*cc.Result, error) {
		c, err := sn.censusGet(cctx)
		if err != nil {
			return nil, err
		}
		return c.result(sn.eng.opt.Threads), nil
	})
}

// CCSizeHistogram maps component size to the number of components of that
// size, as of this epoch. The histogram is computed once per snapshot in its
// own singleflight cell, from the census: the base's histogram (built once
// per base) adjusted by the epoch's overlay. Every caller gets a private
// copy, so mutating the returned map can never corrupt the cached one or
// another caller's answer.
func (sn *Snapshot) CCSizeHistogram(ctx context.Context) (map[int]int, error) {
	h, err := getCell(sn, ctx, &sn.hist, func(cctx context.Context) (map[int]int, error) {
		c, err := sn.censusGet(cctx)
		if err != nil {
			return nil, err
		}
		return c.histogram(), nil
	})
	return maps.Clone(h), err
}

// IsConnected answers the small-XCC query "is this graph connected?" (§3)
// as of this epoch. A census present answers in O(1); so does the census
// under Options.DisablePartial, or on a directed engine whose census is a
// union-find over the out-arcs, which reads no view. Otherwise a trim check
// looks for an isolated vertex or pair in a larger graph, which disproves
// connectivity, and only then does one traversal run from a random pivot.
// Either is coalesced across concurrent callers.
func (sn *Snapshot) IsConnected(ctx context.Context) (bool, error) {
	n := sn.NumVertices()
	if n <= 1 {
		return true, nil
	}
	if c, ok := sn.cen.Peek(); ok {
		return c.num == 1, nil
	}
	if sn.eng.opt.DisablePartial || sn.eng.arcCensus(sn.st.base) {
		c, err := sn.censusGet(ctx)
		if err != nil {
			return false, err
		}
		return c.num == 1, nil
	}
	return getCell(sn, ctx, &sn.isConn, func(cctx context.Context) (bool, error) {
		var connected bool
		err := sn.withSlot(cctx, func() error {
			g, err := sn.undirected(cctx)
			if err != nil {
				return err
			}
			if hasTrimmedComponent(g) {
				return nil
			}
			rng := gen.NewRNG(uint64(n)*0x9e37 + uint64(g.NumEdges()))
			pivot := graph.V(rng.Intn(n))
			rs := sn.eng.reach.Get(n, sn.eng.opt.Threads)
			visited := rs.Reach(bfs.UndirectedAdj(g), pivot, nil,
				bfs.Options{Threads: sn.eng.opt.Threads, Ctx: cctx}, sn.eng.opt.Traversal.mode())
			connected = visited.Count() == n
			sn.eng.reach.Put(rs)
			return ctxErr(cctx)
		})
		return connected, err
	})
}

// hasTrimmedComponent is §3's trim check: an isolated vertex, or an isolated
// pair in a graph of more than two vertices, is a component of its own. The
// sequential degree scan runs first: a pair costs a neighbour lookup per
// degree-1 vertex.
func hasTrimmedComponent(g *Undirected) bool {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Degree(V(v)) == 0 {
			return true
		}
	}
	for v := 0; v < n && n > 2; v++ {
		if g.Degree(V(v)) == 1 && g.Degree(g.Neighbors(V(v))[0]) == 1 {
			return true
		}
	}
	return false
}

// LargestCC answers the largest-XCC queries (§3) for this epoch. The census
// answers when it is present, or when it is a union-find over a directed
// engine's out-arcs. Otherwise one traversal runs from the max-degree
// master pivot and, if the component it finds is at least as big as
// everything else combined, stops there: no other component can beat it.
// Only when the pivot lands in a minority component does the census solve
// run. Concurrent callers coalesce into one execution.
func (sn *Snapshot) LargestCC(ctx context.Context) (*LargestResult, error) {
	return getCell(sn, ctx, &sn.largest, func(cctx context.Context) (*LargestResult, error) {
		if c, ok := sn.cen.Peek(); ok {
			return c.largest(), nil
		}
		n := sn.NumVertices()
		if !sn.eng.opt.DisablePartial && n > 0 && !sn.eng.arcCensus(sn.st.base) {
			var partial *LargestResult
			err := sn.withSlot(cctx, func() error {
				g, err := sn.undirected(cctx)
				if err != nil {
					return err
				}
				master := g.MaxDegreeVertex()
				rs := sn.eng.reach.Get(n, sn.eng.opt.Threads)
				visited := rs.Reach(bfs.UndirectedAdj(g), master, nil,
					bfs.Options{Threads: sn.eng.opt.Threads, Ctx: cctx}, sn.eng.opt.Traversal.mode())
				if err := ctxErr(cctx); err != nil {
					sn.eng.reach.Put(rs)
					return err
				}
				size := visited.Count()
				if 2*size >= n {
					// The result keeps the bitmap, so it must survive the
					// scratch's next checkout.
					rs.DetachVisited()
					sn.eng.reach.Put(rs)
					// An out-of-range vertex is in no component, rather than
					// an index past the bitmap's end.
					partial = &LargestResult{
						Size: size, Pivot: master, Partial: true,
						contains: func(v V) bool { return int(v) < n && visited.Get(v) },
					}
					return nil
				}
				sn.eng.reach.Put(rs)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if partial != nil {
				return partial, nil
			}
		}
		c, err := sn.censusGet(cctx)
		if err != nil {
			return nil, err
		}
		return c.largest(), nil
	})
}

// SCC returns the complete strongly-connected-components decomposition for
// this epoch. Undirected engines return ErrNotDirected.
func (sn *Snapshot) SCC(ctx context.Context) (*SCCResult, error) {
	if !sn.eng.directed {
		return nil, ErrNotDirected
	}
	return getCell(sn, ctx, &sn.sccRes, func(cctx context.Context) (*scc.Result, error) {
		var res *scc.Result
		err := sn.withSlot(cctx, func() error {
			g, err := sn.directed(cctx)
			if err != nil {
				return err
			}
			// Policy-resolved against this snapshot's pinned graph (auto
			// re-resolves per epoch).
			res = sn.eng.sccSolve(g, cctx)
			return ctxErr(cctx)
		})
		return res, err
	})
}

// BiCC returns the complete biconnected-components decomposition for this
// epoch.
func (sn *Snapshot) BiCC(ctx context.Context) (*BiCCResult, error) {
	return getCell(sn, ctx, &sn.biccRes, func(cctx context.Context) (*bicc.Result, error) {
		return sn.solveBiCC(cctx, false)
	})
}

// solveBiCC runs the complete BiCC, or the AP-only plan, on the epoch's
// undirected view inside one kernel slot, under the policy resolved against
// that view (auto re-resolves per epoch).
func (sn *Snapshot) solveBiCC(cctx context.Context, apOnly bool) (res *bicc.Result, err error) {
	err = sn.withSlot(cctx, func() error {
		g, err := sn.undirected(cctx)
		if err != nil {
			return err
		}
		res = sn.eng.biccSolve(g, cctx, apOnly)
		return ctxErr(cctx)
	})
	return res, err
}

// BgCC returns the complete bridgeless-connected-components decomposition
// for this epoch.
func (sn *Snapshot) BgCC(ctx context.Context) (*BgCCResult, error) {
	return getCell(sn, ctx, &sn.bgccRes, func(cctx context.Context) (*bgcc.Result, error) {
		res, _, err := sn.solveBgCC(cctx, false)
		return res, err
	})
}

// solveBgCC runs the complete BgCC, or the bridge-only plan, on the epoch's
// undirected view inside one kernel slot, and returns the view with it.
func (sn *Snapshot) solveBgCC(cctx context.Context, bridgeOnly bool) (res *bgcc.Result, g *Undirected, err error) {
	err = sn.withSlot(cctx, func() error {
		if g, err = sn.undirected(cctx); err != nil {
			return err
		}
		opt := sn.eng.bgccOptions(bridgeOnly)
		opt.Ctx = cctx
		res = bgcc.Run(g, opt)
		return ctxErr(cctx)
	})
	return res, g, err
}

// ArticulationPoints lists the articulation points as of this epoch, in
// ascending order. Every caller gets a private copy.
func (sn *Snapshot) ArticulationPoints(ctx context.Context) ([]V, error) {
	a, err := sn.apList(ctx)
	return slices.Clone(a), err
}

// apList answers the AP-only query (§3) once per epoch, in its own cell, and
// keeps only the ascending list, which callers must not modify. It runs the
// workload-reduced AP detection, which keeps no block bookkeeping and stops
// checking a vertex once it is proven an AP, or the complete BiCC under
// Options.DisablePartial.
func (sn *Snapshot) apList(ctx context.Context) ([]V, error) {
	if a, ok := cachedCell(sn, &sn.aps); ok {
		return a, nil
	}
	return getCell(sn, ctx, &sn.aps, func(cctx context.Context) ([]V, error) {
		var res *bicc.Result
		var err error
		if sn.eng.opt.DisablePartial {
			res, err = sn.BiCC(cctx)
		} else {
			res, err = sn.solveBiCC(cctx, true)
		}
		if err != nil {
			return nil, err
		}
		return apList(res.IsAP), nil
	})
}

// Bridges lists the bridges as of this epoch as ordered endpoint pairs. It
// runs the §3 bridge-only plan — the complete BgCC under
// Options.DisablePartial — in its own cell, resolves the endpoints inside it
// and keeps only the list, so a superseded epoch answers from the cell
// without its graph. Every caller gets a private copy of the list.
func (sn *Snapshot) Bridges(ctx context.Context) ([][2]V, error) {
	b, err := getCell(sn, ctx, &sn.bridges, func(cctx context.Context) ([][2]V, error) {
		var res *bgcc.Result
		var g *Undirected
		var err error
		if sn.eng.opt.DisablePartial {
			if res, err = sn.BgCC(cctx); err == nil {
				g, err = sn.undirected(cctx)
			}
		} else {
			res, g, err = sn.solveBgCC(cctx, true)
		}
		if err != nil {
			return nil, err
		}
		return bridgeList(g, res.IsBridge), nil
	})
	return slices.Clone(b), err
}
