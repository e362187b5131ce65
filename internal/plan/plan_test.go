package plan

import (
	"strings"
	"testing"
)

func TestClassifyCategories(t *testing.T) {
	cases := []struct {
		q    Query
		want Category
	}{
		{Query{CC, "count"}, Complete},
		{Query{SCC, "histogram"}, Complete},
		{Query{BgCC, "labels"}, Complete},
		{Query{CC, "connected"}, Small},
		{Query{SCC, "connected"}, Small},
		{Query{CC, "largest-size"}, Largest},
		{Query{SCC, "in-largest"}, Largest},
		{Query{BiCC, "aps"}, APBridge},
		{Query{BiCC, "is-ap"}, APBridge},
		{Query{BgCC, "bridges"}, APBridge},
	}
	for _, c := range cases {
		p, err := Classify(c.q)
		if err != nil {
			t.Fatalf("%+v: %v", c.q, err)
		}
		if p.Category != c.want {
			t.Errorf("%+v: category %v, want %v", c.q, p.Category, c.want)
		}
		if len(p.Steps) == 0 {
			t.Errorf("%+v: empty strategy", c.q)
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify(Query{CC, "frobnicate"}); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if _, err := Classify(Query{CC, "aps"}); err == nil {
		t.Errorf("aps on CC accepted")
	}
	if _, err := Classify(Query{BiCC, "bridges"}); err == nil {
		t.Errorf("bridges on BiCC accepted")
	}
}

func TestStrategiesMentionTheRightTechniques(t *testing.T) {
	p, _ := Classify(Query{BiCC, "count"})
	joined := strings.Join(p.Steps, " | ")
	for _, frag := range []string{"pendant trim", "single-parent-only", "constrained"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("BiCC complete plan missing %q: %s", frag, joined)
		}
	}
	p, _ = Classify(Query{CC, "connected"})
	if !strings.Contains(strings.Join(p.Steps, " "), "trim check") {
		t.Errorf("small-CC plan must lead with the trim check")
	}
	// The complete CC and WCC plans name the cells that run and none of the
	// retired ones.
	for _, alg := range []Algorithm{CC, WCC} {
		p, _ = Classify(Query{alg, "count"})
		joined = strings.Join(p.Steps, " | ")
		for _, frag := range []string{"pipeline", "afforest+uf-"} {
			if !strings.Contains(joined, frag) {
				t.Errorf("%v complete plan missing %q: %s", alg, frag, joined)
			}
		}
		for _, frag := range []string{"k-out", "BFS sampling", "label-prop"} {
			if strings.Contains(joined, frag) {
				t.Errorf("%v complete plan names the retired %q: %s", alg, frag, joined)
			}
		}
	}
	// A directed graph's partial CC queries name the arc census they take.
	for _, kind := range []string{"connected", "largest-size"} {
		p, _ = Classify(Query{WCC, kind})
		if !strings.HasPrefix(p.Steps[0], "union-find census over the out-arcs") {
			t.Errorf("WCC %s plan must lead with the arc census: %s", kind, p.Steps[0])
		}
	}
}

func TestStringers(t *testing.T) {
	if CC.String() != "CC" || BgCC.String() != "BgCC" || SCC.String() != "SCC" {
		t.Errorf("Algorithm stringer wrong")
	}
	if Complete.String() == "" || APBridge.String() == "" {
		t.Errorf("Category stringer empty")
	}
	if !strings.Contains(Small.String(), "small") {
		t.Errorf("Small stringer: %s", Small.String())
	}
}
