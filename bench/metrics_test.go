package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(data, n=4), the
// method readers of the records use to recompute spreads.
func TestQuantileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 5, 9}, 1, 5, 9},
	} {
		for _, want := range []struct{ q, v float64 }{{0.25, c.q1}, {0.5, c.q2}, {0.75, c.q3}} {
			if got := quantile(c.data, want.q); math.Abs(got-want.v) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.data, want.q, got, want.v)
			}
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestStatAtSortsAndKeepsSamples(t *testing.T) {
	s := statAt([]float64{4, 1, 3, 2}, 0.5)
	if s.Value != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 || s.N != 4 {
		t.Errorf("statAt = %+v", s)
	}
	if s.Samples[0] != 4 {
		t.Errorf("samples reordered: %v", s.Samples)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "x_rps", Unit: "1/s", Better: "higher", Bound: 0.1}
	free := metricDef{Name: "y_s", Unit: "s", Better: "lower"}
	base := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{101, 102, 103, 104, 105}, "within bound"},
		{lower, []float64{80, 81, 82, 83, 84}, "better"},
		{lower, []float64{120, 121, 122, 123, 124}, "worse"},
		{lower, []float64{60, 100, 140, 180, 220}, "unresolved"},
		{higher, []float64{120, 121, 122, 123, 124}, "better"},
		{higher, []float64{80, 81, 82, 83, 84}, "worse"},
		{free, []float64{105, 106, 107, 108, 109}, "worse"},
		{free, []float64{95, 101, 103, 105, 109}, "within noise"},
		{free, []float64{90, 91, 92, 93, 94}, "better"},
	} {
		if got, _, _ := verdict(c.d, base, c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.d.Better, c.b, got, c.want)
		}
	}
}
