// Package cli implements the query dispatch of the aquila command: it maps
// query strings ("connected", "num-scc", "in-largest-cc=7", ...) onto Engine
// calls — the command-line face of the paper's query classification (§3).
package cli

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aquila"
	"aquila/internal/plan"
	"aquila/internal/stats"
)

// Queries lists the recognized query names (parameterized ones shown with
// their syntax).
var Queries = []string{
	"connected", "connected=<u>,<v>", "strongly-connected",
	"num-cc", "num-scc", "num-bicc", "num-bgcc",
	"largest-cc", "largest-scc", "in-largest-cc=<v>",
	"aps", "bridges", "histogram", "stats",
	"cc-policy", "scc-policy", "bicc-policy",
}

// Answer runs one query against the engine and returns the printable answer.
func Answer(eng *aquila.Engine, query string) (string, error) {
	switch {
	case query == "connected":
		return fmt.Sprintf("%v", eng.IsConnected()), nil
	case strings.HasPrefix(query, "connected="):
		u, v, err := parsePair(strings.TrimPrefix(query, "connected="))
		if err != nil {
			return "", err
		}
		n := eng.NumVertices()
		if int(u) >= n || int(v) >= n {
			return "", fmt.Errorf("vertex out of range [0,%d)", n)
		}
		return fmt.Sprintf("%v", eng.Connected(u, v)), nil
	case query == "strongly-connected":
		ok, err := eng.IsStronglyConnected()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", ok), nil
	case query == "num-cc":
		return fmt.Sprintf("%d connected components", eng.CountCC()), nil
	case query == "num-scc":
		res, err := eng.SCC()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d strongly connected components", res.NumComponents), nil
	case query == "num-bicc":
		return fmt.Sprintf("%d biconnected components", eng.BiCC().NumBlocks), nil
	case query == "num-bgcc":
		return fmt.Sprintf("%d bridgeless connected components", eng.BgCC().NumComponents), nil
	case query == "largest-cc":
		res := eng.LargestCC()
		how := "complete computation"
		if res.Partial {
			how = "partial computation"
		}
		return fmt.Sprintf("largest CC: %d vertices (via %s)", res.Size, how), nil
	case query == "largest-scc":
		res, err := eng.LargestSCC()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("largest SCC: %d vertices", res.Size), nil
	case strings.HasPrefix(query, "in-largest-cc="):
		v, err := strconv.ParseUint(strings.TrimPrefix(query, "in-largest-cc="), 10, 32)
		if err != nil {
			return "", fmt.Errorf("bad vertex id: %v", err)
		}
		if int(v) >= eng.NumVertices() {
			return "", fmt.Errorf("vertex %d out of range", v)
		}
		return fmt.Sprintf("%v", eng.InLargestCC(aquila.V(v))), nil
	case query == "aps":
		aps := eng.ArticulationPoints()
		return fmt.Sprintf("%d articulation points: %v", len(aps), truncate(aps, 20)), nil
	case query == "bridges":
		brs := eng.Bridges()
		return fmt.Sprintf("%d bridges: %v", len(brs), truncatePairs(brs, 20)), nil
	case query == "stats":
		return stats.Render(eng.Directed(), eng.Undirected(), 0), nil
	case query == "cc-policy":
		return fmt.Sprintf("cc policy: %s", eng.CCPolicy()), nil
	case query == "scc-policy":
		pol, err := eng.SCCPolicy()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("scc policy: %s", pol), nil
	case query == "bicc-policy":
		return fmt.Sprintf("bicc policy: %s", eng.BiCCPolicy()), nil
	case query == "histogram":
		hist := eng.CCSizeHistogram()
		sizes := make([]int, 0, len(hist))
		for s := range hist {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		var b strings.Builder
		fmt.Fprintf(&b, "CC size histogram (%d distinct sizes):\n", len(sizes))
		for _, s := range sizes {
			fmt.Fprintf(&b, "  size %8d: %d component(s)\n", s, hist[s])
		}
		return strings.TrimRight(b.String(), "\n"), nil
	default:
		return "", fmt.Errorf("unknown query %q (available: %s)", query, strings.Join(Queries, ", "))
	}
}

// Explain classifies a query per the paper's §3 categories and renders the
// strategy Aquila will use (the -explain flag).
func Explain(query string) (string, error) {
	if query == "cc-policy" {
		return "query \"cc-policy\" is diagnostic: it reports the CC matrix cell " +
			"the engine resolved (the adaptive chooser's pick under -cc-policy=auto) " +
			"without running a kernel", nil
	}
	if query == "scc-policy" {
		return "query \"scc-policy\" is diagnostic: it reports the SCC matrix cell " +
			"the engine resolved (the probe-fed chooser's pick under -scc-policy=auto) " +
			"without running a kernel; directed inputs only", nil
	}
	if query == "bicc-policy" {
		return "query \"bicc-policy\" is diagnostic: it reports the BiCC matrix cell " +
			"the engine resolved (the depth-probe-fed chooser's pick under " +
			"-bicc-policy=auto) without running a kernel", nil
	}
	q, err := toPlanQuery(query)
	if err != nil {
		return "", err
	}
	p, err := plan.Classify(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query %q on %v -> %v\n", query, q.Alg, p.Category)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, s)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// toPlanQuery maps CLI query strings onto the structured plan queries. The
// CLI's graphs are directed, so its CC queries are WCC queries.
func toPlanQuery(query string) (plan.Query, error) {
	switch {
	case query == "connected", strings.HasPrefix(query, "connected="):
		return plan.Query{Alg: plan.WCC, Kind: "connected"}, nil
	case query == "strongly-connected":
		return plan.Query{Alg: plan.SCC, Kind: "connected"}, nil
	case query == "num-cc", query == "histogram":
		return plan.Query{Alg: plan.WCC, Kind: "count"}, nil
	case query == "num-scc":
		return plan.Query{Alg: plan.SCC, Kind: "count"}, nil
	case query == "num-bicc":
		return plan.Query{Alg: plan.BiCC, Kind: "count"}, nil
	case query == "num-bgcc":
		return plan.Query{Alg: plan.BgCC, Kind: "count"}, nil
	case query == "largest-cc", strings.HasPrefix(query, "in-largest-cc="):
		return plan.Query{Alg: plan.WCC, Kind: "largest-size"}, nil
	case query == "largest-scc":
		return plan.Query{Alg: plan.SCC, Kind: "largest-size"}, nil
	case query == "aps":
		return plan.Query{Alg: plan.BiCC, Kind: "aps"}, nil
	case query == "bridges":
		return plan.Query{Alg: plan.BgCC, Kind: "bridges"}, nil
	default:
		return plan.Query{}, fmt.Errorf("unknown query %q (available: %s)", query, strings.Join(Queries, ", "))
	}
}

func truncate(vs []aquila.V, k int) []aquila.V {
	if len(vs) <= k {
		return vs
	}
	return vs[:k]
}

func truncatePairs(vs [][2]aquila.V, k int) [][2]aquila.V {
	if len(vs) <= k {
		return vs
	}
	return vs[:k]
}
