package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a request takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPaceChargesStallToSuccessors(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.Now()
	ops := []op{{Due: 0}, {Due: 2 * ms}, {Due: 4 * ms}, {Due: 20 * ms}}
	// The first request stalls for 10 ms; the others take 1 ms each.
	service := []time.Duration{10 * ms, ms, ms, ms}
	i := 0
	got := pace(clk, start, ops, func(op) error {
		clk.Sleep(service[i])
		i++
		return nil
	})
	want := []struct{ late, lat time.Duration }{
		{0, 10 * ms},
		{8 * ms, 9 * ms}, // due at 2, sent at 10, answered at 11
		{7 * ms, 8 * ms}, // due at 4, sent at 11, answered at 12
		{0, ms},          // due at 20: the backlog has drained, so it waits for its tick
	}
	for j, w := range want {
		if got[j].Late != w.late || got[j].Lat != w.lat {
			t.Errorf("op %d: late %v lat %v, want late %v lat %v", j, got[j].Late, got[j].Lat, w.late, w.lat)
		}
	}
	if got[1].Sent != ms {
		t.Errorf("op 1 service time %v, want 1ms", got[1].Sent)
	}
}

func TestPlanArrivalsOnTicks(t *testing.T) {
	g := workloads[0].Graph(1, true)
	p := makePlan(g, readInsert, 2*time.Second, 1)
	counts := map[string]int{}
	for _, o := range p.Ops {
		counts[o.Kind]++
		if o.Due%tick != 0 {
			t.Fatalf("op %+v not on a %v tick", o, tick)
		}
		if (o.Kind == "read") != (o.Conn == 0) {
			t.Fatalf("op %+v on the wrong connection", o)
		}
	}
	m := readInsert
	if counts["read"] != 2*m.Reads || counts["apply"] != 2*m.Applies || counts["decomp"] != 2*m.Decomps {
		t.Errorf("op counts %v for 2s of %+v", counts, m)
	}
}
