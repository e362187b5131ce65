package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..40 once.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A disjoint child, with a grandchild that counts against it only.
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: "d", Start: 65 * ms, End: 70 * ms},
		// A child running past its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "e", Start: 95 * ms, End: 120 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 45 * ms, 2: 20 * ms, 3: 20 * ms, 4: 15 * ms, 5: 5 * ms, 6: 25 * ms}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, 7, "root")
	tr.timed(root, 7, "child", func() {})
	tr.end(root, "cell", "fwbw")
	if len(tr.spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.spans))
	}
	c := tr.spans[1]
	if c.Parent != root || c.Req != 7 || c.Start < tr.spans[0].Start || c.End > tr.spans[0].End {
		t.Errorf("child span %+v does not nest in %+v", c, tr.spans[0])
	}
	if tr.spans[0].Attrs["cell"] != "fwbw" {
		t.Errorf("root attrs = %v", tr.spans[0].Attrs)
	}
}
