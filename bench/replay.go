package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"slices"
	"time"

	"aquila"
)

// replayOut is what the replay child reports: per-layer samples in seconds,
// the overload count, and the spans.
type replayOut struct {
	Layer      map[string][]float64 `json:"layer"`
	Overloaded int                  `json:"overloaded"`
	PromoteS   float64              `json:"promote_s,omitempty"`
	Spans      []span               `json:"spans"`
}

// runReplay replays a workload's op log in-process, without pacing, against
// two twin engines over the same graph: A is a bare Engine, B is wrapped in
// a Server exactly as aquilad wraps it. A batch's publish cost is B's apply
// minus A's. Materialization is sampled on A, after a batch, while its total
// stays under a third of the budget; folding resets A's pending delta, which
// the Server's engine keeps.
func runReplay(graphPath string, text bool, planPath string, budget time.Duration) (*replayOut, error) {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return nil, err
	}
	var p plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	d, release, err := loadGraph(graphPath, text)
	if err != nil {
		return nil, err
	}
	defer release()
	a := aquila.NewDirectedEngine(d, aquila.Options{})
	srv := aquila.NewServer(aquila.NewDirectedEngine(d, aquila.Options{}), aquila.ServerConfig{})
	out := &replayOut{Layer: map[string][]float64{}}
	tr := newTracer()
	ctx := context.Background()
	apply := func(parent, req int, o op) (eng, pub time.Duration, err error) {
		batch := updates(o)
		eng = tr.timed(parent, req, "engine.apply", func() { _, err = a.ApplyUpdates(batch) })
		if err != nil {
			return
		}
		pub = tr.timed(parent, req, "serve.apply", func() {
			// Mirror the HTTP handler: insert-only batches go through Apply.
			if len(o.Del) > 0 {
				_, err = srv.ApplyUpdates(batch)
				return
			}
			edges := make([]aquila.Edge, len(o.Ins))
			for i, e := range o.Ins {
				edges[i] = aquila.Edge{U: e[0], V: e[1]}
			}
			_, err = srv.Apply(edges)
		})
		return
	}
	if p.Warmup != nil {
		eng, _, err := apply(0, -1, *p.Warmup)
		if err != nil {
			return nil, err
		}
		out.PromoteS = eng.Seconds()
	}
	// The first read of epoch 0 computes its labels, as the warm-up read
	// does against aquilad.
	if _, err := srv.Connected(ctx, 0, 0); err != nil {
		return nil, err
	}

	sample := func(name string, dt time.Duration) { out.Layer[name] = append(out.Layer[name], dt.Seconds()) }
	ops := byDue(p.Ops)
	var matTotal time.Duration
	start := time.Now()
	for i, o := range ops {
		if time.Since(start) > budget {
			break
		}
		root := tr.begin(0, i, "op."+o.Kind)
		var err error
		switch o.Kind {
		case "read":
			t := time.Now()
			_, err = srv.Connected(ctx, o.U, o.V)
			sample("serve.connected_s", time.Since(t))
		case "apply":
			var eng, pub time.Duration
			eng, pub, err = apply(root, i, o)
			sample("engine.apply_s", eng)
			sample("serve.apply_s", pub)
			if err == nil && matTotal < budget/3 {
				runtime.GC()
				dt := tr.timed(root, i, "engine.materialize", func() { a.Undirected() })
				matTotal += dt
				sample("engine.materialize_s", dt)
			}
		case "decomp":
			t := time.Now()
			err = decomp(ctx, srv, o.Path)
			sample("serve.decomp_s", time.Since(t))
		}
		tr.end(root)
		if errors.Is(err, aquila.ErrOverloaded) {
			out.Overloaded++
		} else if err != nil {
			return nil, err
		}
	}
	out.Spans = tr.spans
	return out, nil
}

// updates converts an apply op into the engine's batch: inserts, then
// deletes, the order the HTTP handler uses.
func updates(o op) []aquila.Update {
	batch := make([]aquila.Update, 0, len(o.Ins)+len(o.Del))
	for _, e := range o.Ins {
		batch = append(batch, aquila.Insert(e[0], e[1]))
	}
	for _, e := range o.Del {
		batch = append(batch, aquila.Delete(e[0], e[1]))
	}
	return batch
}

// decomp answers a decomposition endpoint through the Server API.
func decomp(ctx context.Context, srv *aquila.Server, path string) error {
	var err error
	switch path {
	case "/v1/largest-cc":
		_, err = srv.LargestCC(ctx)
	case "/v1/histogram":
		_, err = srv.CCSizeHistogram(ctx)
	case "/v1/bridges":
		_, err = srv.Bridges(ctx)
	case "/v1/scc":
		_, err = srv.SCC(ctx)
	default:
		_, err = srv.CC(ctx)
	}
	return err
}

// byDue merges the connections' ops into one sequence by due time; at equal
// due times connection 1 (applies, decompositions) goes first.
func byDue(ops []op) []op {
	out := slices.Clone(ops)
	slices.SortStableFunc(out, func(a, b op) int {
		if a.Due != b.Due {
			return cmp.Compare(a.Due, b.Due)
		}
		return cmp.Compare(b.Conn, a.Conn)
	})
	return out
}
