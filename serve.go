package aquila

import (
	"context"
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

// snapState is what a serving Snapshot captures from the engine at publish
// time: the immutable base graph pointers, the epoch's prefix of the signed
// delta, and the compute-space connectivity census when it is available
// cheaply.
type snapState struct {
	base graphSet
	// arcs and edges are the engine's delta logs as of the epoch, capped
	// (d[:n:n]) so that the engine's later appends can never reach them.
	arcs, edges []graph.Change
	// cen is the epoch's census, or nil when deriving it would cost a
	// traversal (cold static engine). The object is immutable: Apply advances
	// the engine to a new census but never mutates a published one.
	cen *census
	// gen is the engine's cacheGen at capture. A cold epoch hands its solve
	// back to the engine only while the engine is still at this generation.
	gen uint64
}

// snapshotState captures, under e.mu, everything a serving Snapshot needs,
// in O(1) beyond the census: no graph is built and no delta is copied.
// Insert-only epochs read the census Apply keeps current; dynamic epochs
// wrap the forest's labels, an O(|V|) walk only after a batch that merged
// or split components.
func (e *Engine) snapshotState() snapState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := snapState{
		base:  e.base(),
		arcs:  e.arcLog[:len(e.arcLog):len(e.arcLog)],
		edges: e.edgeLog[:len(e.edgeLog):len(e.edgeLog)],
		gen:   e.cacheGen,
	}
	if e.dyn != nil {
		st.cen, _ = e.censusLockedCtx(nil)
	} else {
		if e.cen == nil && e.ccRaw != nil {
			e.cen = newCensus(e.ccRaw)
		}
		st.cen = e.cen
	}
	return st
}

// adoptColdCensus hands a cold epoch's solve back to the engine, so the
// first Apply seeds its incremental state from it instead of solving CC a
// second time. Like the partial fast paths' fills it re-validates first: the
// engine must still hold the captured graph, with no pending delta, no
// incremental or dynamic state, and an unchanged cacheGen.
func (e *Engine) adoptColdCensus(st snapState, c *census) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ccRaw == nil && e.base() == st.base && len(e.edgeLog) == 0 && len(e.arcLog) == 0 &&
		e.inc == nil && e.dyn == nil && e.cacheGen == st.gen {
		e.ccRaw, e.cen = c.base.res, c
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
// edge updates). It adds three things the bare Engine does not have:
//
//   - Epoch snapshots: every query runs against an immutable Snapshot of the
//     graph. Apply builds the next epoch copy-on-write and publishes it with
//     one atomic pointer swap, so reads never block writes, writes never
//     block reads, and no reader ever observes a torn state.
//   - Singleflight: queries that need the same decomposition on the same
//     epoch coalesce into one kernel execution whose result fans out to all
//     waiters; cancellation is waiter-refcounted (the kernel aborts only
//     when every waiter has left).
//   - Admission control: kernel executions occupy bounded slots with a FIFO
//     overflow queue, so a query storm degrades into queueing + ErrOverloaded
//     instead of unbounded thread oversubscription.
//
// Once an Engine is wrapped by a Server, route all updates through
// Server.Apply — direct Engine.Apply calls would bypass epoch publication
// and leave the served snapshot stale (queries stay consistent, but against
// an old epoch until the next Server.Apply).
type Server struct {
	eng  *Engine
	cfg  ServerConfig
	gate *serve.Gate
	// sfStats aggregates hit/miss telemetry from every snapshot's result
	// cells, across all epochs (see SingleflightStats).
	sfStats serve.CellStats

	// applyMu serializes writers; the snapshot pointer is the only
	// reader-visible state and is swapped atomically.
	applyMu sync.Mutex
	cur     atomic.Pointer[Snapshot]
}

// NewServer wraps e in a serving layer and publishes epoch 0.
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
	s.cur.Store(s.capture(0))
	return s
}

// capture builds the snapshot for one epoch from the engine's current state.
func (s *Server) capture(epoch uint64) *Snapshot {
	st := s.eng.snapshotState()
	sn := &Snapshot{srv: s, eng: s.eng, epoch: epoch, st: st}
	for _, c := range []interface{ SetStats(*serve.CellStats) }{
		&sn.dirView, &sn.undView, &sn.cen, &sn.ccRes, &sn.isConn, &sn.largest,
		&sn.sccRes, &sn.biccRes, &sn.bgccRes, &sn.aps, &sn.bridges, &sn.hist,
	} {
		c.SetStats(&s.sfStats)
	}
	if st.cen != nil {
		sn.cen.Seed(st.cen)
	}
	// A view with nothing to merge is the base itself. A directed engine's
	// undirected view may not be built yet, so its cell fills on first use.
	if len(st.arcs) == 0 {
		sn.dirView.Seed(st.base.directedView)
	}
	if len(st.edges) == 0 && !s.eng.directed {
		sn.undView.Seed(s.eng.undirectedOf(st.base))
	}
	return sn
}

// publish makes next the current epoch and releases the views of the epoch
// it supersedes. Called under applyMu.
func (s *Server) publish(next *Snapshot) {
	prev := s.cur.Swap(next)
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
	s.publish(s.capture(s.cur.Load().epoch + 1))
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
	s.publish(s.capture(s.cur.Load().epoch + 1))
	return res, nil
}

// Acquire pins the current snapshot. The snapshot stays valid (and its
// cached decompositions stay warm) for as long as the caller holds it, no
// matter how many epochs are published meanwhile; dropping the reference
// releases it to the garbage collector. There is no explicit unpin.
func (s *Server) Acquire() *Snapshot { return s.cur.Load() }

// Epoch returns the currently published epoch (0 before the first Apply).
func (s *Server) Epoch() uint64 { return s.cur.Load().epoch }

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
// Decompositions computed on a snapshot are cached on it (singleflighted
// across concurrent askers), so a pinned snapshot amortizes kernel work over
// a query storm exactly like the Engine's caches do over sequential queries.
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
	srv   *Server
	eng   *Engine
	epoch uint64
	st    snapState

	dirView serve.Cell[directedView]
	undView serve.Cell[undirectedView]
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
}

// Epoch identifies the snapshot's position in the update sequence: epoch k
// reflects exactly the first k Apply batches.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// NumVertices returns the vertex count (fixed across epochs: Apply never
// grows the vertex set).
func (sn *Snapshot) NumVertices() int { return sn.eng.n }

// getCell is the dedup point for every lazily computed snapshot value: warm
// values return immediately; cold ones compute through the cell's
// singleflight unless the server's ablation knob bypasses it.
func getCell[T any](sn *Snapshot, ctx context.Context, c *serve.Cell[T], compute func(context.Context) (T, error)) (T, error) {
	if sn.srv.cfg.DisableSingleflight {
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
	return c.Get(ctx, compute)
}

// cachedCell is getCell's warm branch alone: it counts a hit exactly when
// getCell would, and needs no compute closure, so a warm lookup allocates
// nothing.
func cachedCell[T any](sn *Snapshot, c *serve.Cell[T]) (T, bool) {
	if sn.srv.cfg.DisableSingleflight {
		return c.Peek()
	}
	return c.Cached()
}

// withSlot runs f inside one admission-gate kernel slot. Slots are only ever
// taken at the leaves (actual kernel executions), never nested, so a slot
// holder cannot deadlock waiting for another slot.
func (sn *Snapshot) withSlot(ctx context.Context, f func() error) error {
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
func (sn *Snapshot) directed(ctx context.Context) (directedView, error) {
	return getCell(sn, ctx, &sn.dirView, func(context.Context) (directedView, error) {
		return sn.eng.patchDirected(sn.st.base.directedView, sn.st.arcs), nil
	})
}

// undirected returns the epoch's undirected view, merged from the base's
// undirected view and the epoch's edge delta; see directed. On a directed
// engine the base's view is built by the first caller on that base and kept
// by its directed CSRs, so every epoch on the base merges into one copy.
func (sn *Snapshot) undirected(ctx context.Context) (undirectedView, error) {
	return getCell(sn, ctx, &sn.undView, func(context.Context) (undirectedView, error) {
		return sn.eng.patchUndirected(sn.eng.undirectedOf(sn.st.base), sn.st.edges), nil
	})
}

// censusGet returns the epoch's connectivity census. Insert-only and
// dynamic epochs publish theirs at capture. A cold epoch solves CC once,
// coalesced across concurrent callers — this is the batching that turns a
// query storm into one kernel pass — and hands the result to the engine.
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
		r := sn.eng.ccSolve(sn.st.base, cctx)
		if err := ctxErr(cctx); err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := newCensus(res)
	sn.eng.adoptColdCensus(sn.st, c)
	return c, nil
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
	return c.connected(sn.eng.mapV(u), sn.eng.mapV(v)), nil
}

// CountCC returns the number of connected components as of this epoch.
func (sn *Snapshot) CountCC(ctx context.Context) (int, error) {
	c, err := sn.censusGet(ctx)
	if err != nil {
		return 0, err
	}
	return c.num, nil
}

// CC returns the complete CC decomposition (original vertex ids) for this
// epoch, materialized from the census once per epoch.
func (sn *Snapshot) CC(ctx context.Context) (*CCResult, error) {
	return getCell(sn, ctx, &sn.ccRes, func(cctx context.Context) (*cc.Result, error) {
		c, err := sn.censusGet(cctx)
		if err != nil {
			return nil, err
		}
		raw := c.result(sn.eng.opt.Threads)
		if sn.eng.perm != nil {
			return remapCC(raw, sn.eng.perm, sn.eng.opt.Threads), nil
		}
		return raw, nil
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
	if err != nil {
		return nil, err
	}
	return maps.Clone(h), nil
}

// IsConnected reports whether the graph is connected as of this epoch. With
// the census present it is O(1). A directed engine whose census is a
// union-find cell solves the census (Engine.IsConnected); otherwise it runs
// one partial traversal (§3). Either is coalesced across concurrent callers.
func (sn *Snapshot) IsConnected(ctx context.Context) (bool, error) {
	n := sn.NumVertices()
	if n <= 1 {
		return true, nil
	}
	if c, ok := sn.cen.Peek(); ok {
		return c.num == 1, nil
	}
	if sn.eng.arcCensus(sn.st.base) {
		c, err := sn.censusGet(ctx)
		if err != nil {
			return false, err
		}
		return c.num == 1, nil
	}
	return getCell(sn, ctx, &sn.isConn, func(cctx context.Context) (bool, error) {
		var connected bool
		err := sn.withSlot(cctx, func() error {
			gs, err := sn.undirected(cctx)
			if err != nil {
				return err
			}
			g := gs.und
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

// LargestCC answers the largest-component query for this epoch from the
// census when it is present, or when the census is a union-find over a
// directed engine's out-arcs (Engine.LargestCC). Otherwise it runs the §3
// partial computation: one traversal from the max-degree pivot, falling back
// to the census solve only when the pivot's component is a minority.
// Concurrent callers coalesce into one execution.
func (sn *Snapshot) LargestCC(ctx context.Context) (*LargestResult, error) {
	return getCell(sn, ctx, &sn.largest, func(cctx context.Context) (*LargestResult, error) {
		if c, ok := sn.cen.Peek(); ok {
			return sn.eng.largestFromCensus(c), nil
		}
		n := sn.NumVertices()
		if !sn.eng.opt.DisablePartial && n > 0 && !sn.eng.arcCensus(sn.st.base) {
			var partial *LargestResult
			err := sn.withSlot(cctx, func() error {
				gs, err := sn.undirected(cctx)
				if err != nil {
					return err
				}
				g := gs.und
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
					rs.DetachVisited()
					sn.eng.reach.Put(rs)
					// Both closures reject out-of-range vertices instead of
					// indexing the permutation (or bitmap) past its end: an
					// unknown vertex is in no component.
					contains := func(v V) bool { return int(v) < n && visited.Get(v) }
					if p := sn.eng.perm; p != nil {
						contains = func(v V) bool { return int(v) < n && visited.Get(p.Perm[v]) }
					}
					partial = &LargestResult{
						Size: size, Pivot: sn.eng.unmapV(master), Partial: true,
						contains: contains,
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
		return sn.eng.largestFromCensus(c), nil
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
			gs, err := sn.directed(cctx)
			if err != nil {
				return err
			}
			// Policy-resolved against this snapshot's pinned graph, exactly
			// like the engine path (auto re-resolves per epoch).
			raw := sn.eng.sccSolve(gs.dir, cctx)
			if err := ctxErr(cctx); err != nil {
				return err
			}
			if sn.eng.perm != nil {
				raw = remapSCC(raw, sn.eng.perm, sn.eng.opt.Threads)
			}
			res = raw
			return nil
		})
		return res, err
	})
}

// BiCC returns the complete biconnected-components decomposition for this
// epoch.
func (sn *Snapshot) BiCC(ctx context.Context) (*BiCCResult, error) {
	return getCell(sn, ctx, &sn.biccRes, func(cctx context.Context) (*bicc.Result, error) {
		var res *bicc.Result
		err := sn.withSlot(cctx, func() error {
			gs, err := sn.undirected(cctx)
			if err != nil {
				return err
			}
			// Policy-resolved against this snapshot's pinned graph, exactly
			// like the engine path (auto re-resolves per epoch).
			raw := sn.eng.biccSolve(gs.und, cctx, false)
			if err := ctxErr(cctx); err != nil {
				return err
			}
			if sn.eng.perm != nil {
				raw = remapBiCC(raw, sn.eng.perm, sn.eng.eidMap(gs), sn.eng.opt.Threads)
			}
			res = raw
			return nil
		})
		return res, err
	})
}

// BgCC returns the complete bridgeless-connected-components decomposition
// for this epoch.
func (sn *Snapshot) BgCC(ctx context.Context) (*BgCCResult, error) {
	return getCell(sn, ctx, &sn.bgccRes, func(cctx context.Context) (*bgcc.Result, error) {
		var res *bgcc.Result
		err := sn.withSlot(cctx, func() error {
			gs, err := sn.undirected(cctx)
			if err != nil {
				return err
			}
			opt := sn.eng.bgccOptions(false)
			opt.Ctx = cctx
			raw := bgcc.Run(gs.und, opt)
			if err := ctxErr(cctx); err != nil {
				return err
			}
			if sn.eng.perm != nil {
				raw = remapBgCC(raw, sn.eng.perm, sn.eng.eidMap(gs), sn.eng.opt.Threads)
			}
			res = raw
			return nil
		})
		return res, err
	})
}

// ArticulationPoints lists the articulation points as of this epoch
// (original vertex ids, ascending). Like the engine it runs the §3 AP-only
// plan — the complete BiCC under Options.DisablePartial — in its own cell,
// once per epoch, and keeps only the list; every caller gets a private copy.
func (sn *Snapshot) ArticulationPoints(ctx context.Context) ([]V, error) {
	a, err := getCell(sn, ctx, &sn.aps, func(cctx context.Context) ([]V, error) {
		var res *bicc.Result
		if sn.eng.opt.DisablePartial {
			r, err := sn.BiCC(cctx)
			if err != nil {
				return nil, err
			}
			res = r
		} else if err := sn.withSlot(cctx, func() error {
			gs, err := sn.undirected(cctx)
			if err != nil {
				return err
			}
			raw := sn.eng.biccSolve(gs.und, cctx, true)
			if err := ctxErr(cctx); err != nil {
				return err
			}
			if sn.eng.perm != nil {
				raw = remapBiCC(raw, sn.eng.perm, sn.eng.eidMap(gs), sn.eng.opt.Threads)
			}
			res = raw
			return nil
		}); err != nil {
			return nil, err
		}
		return apList(res.IsAP), nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Clone(a), nil
}

// Bridges lists the bridges as of this epoch as ordered endpoint pairs in
// original vertex ids. Like the engine it runs the §3 bridge-only plan — the
// complete BgCC under Options.DisablePartial — in its own cell, resolves
// the endpoints inside it and keeps only the list, so a superseded epoch
// answers from the cell without its graph. Every caller gets a private copy
// of the list.
func (sn *Snapshot) Bridges(ctx context.Context) ([][2]V, error) {
	b, err := getCell(sn, ctx, &sn.bridges, func(cctx context.Context) ([][2]V, error) {
		var res *bgcc.Result
		var gs undirectedView
		if sn.eng.opt.DisablePartial {
			r, err := sn.BgCC(cctx)
			if err != nil {
				return nil, err
			}
			if gs, err = sn.undirected(cctx); err != nil {
				return nil, err
			}
			res = r
		} else if err := sn.withSlot(cctx, func() error {
			var err error
			if gs, err = sn.undirected(cctx); err != nil {
				return err
			}
			opt := sn.eng.bgccOptions(true)
			opt.Ctx = cctx
			raw := bgcc.Run(gs.und, opt)
			if err := ctxErr(cctx); err != nil {
				return err
			}
			if sn.eng.perm != nil {
				raw = remapBgCC(raw, sn.eng.perm, sn.eng.eidMap(gs), sn.eng.opt.Threads)
			}
			res = raw
			return nil
		}); err != nil {
			return nil, err
		}
		g := gs.und
		if sn.eng.perm != nil {
			g = gs.origUnd
		}
		return bridgeList(g, res.IsBridge), nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Clone(b), nil
}
