// Package plan implements the query-analysis stage of the paper's framework
// (Fig. 2 and §3): given a connectivity query, classify it into one of the
// four categories — complete computation, largest-XCC, small-XCC, or
// AP/bridge-only — and describe the computation strategy Aquila will use.
// The Engine consults the same classification implicitly; this package makes
// it explicit, inspectable and testable (the CLI's -explain flag prints it).
package plan

import "fmt"

// Algorithm names the XCC decomposition a query concerns.
type Algorithm int

const (
	CC Algorithm = iota
	WCC
	SCC
	BiCC
	BgCC
)

func (a Algorithm) String() string {
	switch a {
	case CC:
		return "CC"
	case WCC:
		return "WCC"
	case SCC:
		return "SCC"
	case BiCC:
		return "BiCC"
	default:
		return "BgCC"
	}
}

// Category is the paper's four-way query classification (§3).
type Category int

const (
	// Complete requires the full decomposition (counts, histograms,
	// labelings, and anything that does not fit the partial classes).
	Complete Category = iota
	// Largest targets the largest XCC (its size, its members, membership).
	Largest
	// Small is answerable by finding any small XCC or proving none exists
	// ("is the graph connected?").
	Small
	// APBridge wants only the articulation points or bridges, not the block
	// decomposition they induce.
	APBridge
)

func (c Category) String() string {
	switch c {
	case Complete:
		return "complete computation"
	case Largest:
		return "partial: largest XCC"
	case Small:
		return "partial: small XCC"
	default:
		return "partial: AP/bridge only"
	}
}

// Query is a structured connectivity question.
type Query struct {
	Alg Algorithm
	// Kind is one of: "count", "histogram", "labels", "connected",
	// "largest-size", "largest-member", "in-largest", "aps", "bridges",
	// "is-ap", "is-bridge".
	Kind string
}

// Plan is the classification outcome plus the strategy description.
type Plan struct {
	Query    Query
	Category Category
	// Steps describes the computation pipeline Aquila runs, in order.
	Steps []string
}

// Classify maps a query onto its category and strategy (paper §3–§5). It
// returns an error for unknown kinds so callers fail loudly instead of
// silently running a complete computation.
func Classify(q Query) (*Plan, error) {
	p := &Plan{Query: q}
	switch q.Kind {
	case "count", "histogram", "labels":
		p.Category = Complete
		p.Steps = completeSteps(q.Alg)
	case "connected":
		p.Category = Small
		p.Steps = []string{
			"a census computed already (always, once updates have begun) answers: connected iff one component",
			"otherwise trim check: any trimmable pattern in a larger graph disproves connectivity",
			"otherwise a single traversal from a random pivot; compare coverage with |V|",
		}
		if q.Alg == WCC {
			p.Steps = []string{
				"union-find census over the out-arcs when the CC cell is a union-find cell (auto past 4096 vertices), or a census computed already (always, once updates have begun): connected iff one component; builds neither the in-CSR nor the undirected view",
				"otherwise trim check, then a single traversal of the undirected view from a random pivot",
			}
		}
		if q.Alg == SCC {
			p.Steps = []string{
				"trim check: any vertex with zero in- or out-degree disproves strong connectivity",
				"forward + backward traversal from one pivot; compare coverage with |V|",
			}
		}
	case "largest-size", "largest-member", "in-largest":
		p.Category = Largest
		p.Steps = []string{
			"heuristic pivot: highest-degree vertex (sits in the large XCC on real graphs)",
			"compute that XCC with the enhanced parallel BFS",
			"if it covers at least half the graph it is provably the largest — stop",
			"otherwise fall back to the complete computation",
		}
		if q.Alg == WCC {
			p.Steps = []string{
				"union-find census over the out-arcs when the CC cell is a union-find cell (auto past 4096 vertices): its largest component; builds neither the in-CSR nor the undirected view",
				"otherwise the pivot traversal of the undirected view, stopping if it covers half the graph, else the complete computation",
			}
		}
	case "aps", "is-ap":
		if q.Alg != BiCC {
			return nil, fmt.Errorf("plan: %q applies to BiCC, not %v", q.Kind, q.Alg)
		}
		p.Category = APBridge
		p.Steps = []string{
			"pendant trim: trimmed parents with other edges are APs immediately",
			"BFS forest + single-parent-only pruning of constrained checks",
			"surviving constrained BFSes, skipping vertices already proven APs",
			"no block bookkeeping",
		}
	case "bridges", "is-bridge":
		if q.Alg != BgCC {
			return nil, fmt.Errorf("plan: %q applies to BgCC, not %v", q.Kind, q.Alg)
		}
		p.Category = APBridge
		p.Steps = []string{
			"pendant trim: every trimmed edge is a bridge",
			"BFS forest + bridge-variant single-parent-only pruning",
			"surviving constrained BFSes (edge-avoiding)",
			"no component labeling",
		}
	default:
		return nil, fmt.Errorf("plan: unknown query kind %q", q.Kind)
	}
	return p, nil
}

func completeSteps(a Algorithm) []string {
	switch a {
	case CC:
		return []string{
			"auto policy: the pipeline cell up to 4096 vertices or with no edges, else a union-find cell picked from cheap graph statistics",
			"pipeline: trim orphans and isolated pairs",
			"pipeline: enhanced parallel BFS for the large component (data parallel)",
			"pipeline: label propagation sweep for the small components (task parallel)",
			"union-find cell: afforest+uf-async or afforest+uf-rem (Afforest sampling, then a union-find finish that skips the provisional largest component); none+uf-rem on forest-like graphs",
		}
	case WCC:
		return []string{
			"auto policy: the pipeline cell up to 4096 vertices, else afforest+uf-rem",
			"pipeline: trim, enhanced parallel BFS and label propagation on the undirected view",
			"afforest+uf-rem: the arc census, a union-find over the out-arcs (Afforest sampling, then a finish that skips the provisional largest component); builds neither the in-CSR nor the undirected view",
		}
	case SCC:
		return []string{
			"iterated size-1/size-2 trims",
			"FW-BW from the max-degree pivot for the giant SCC (two enhanced BFSes)",
			"coloring rounds (forward max-label + backward BFS per color root) for the rest",
		}
	case BiCC:
		return []string{
			"pendant trim (each trimmed edge is its own block)",
			"BFS forest + single-parent-only pruning",
			"level-ordered constrained BFSes, task parallel per parent; mark blocks",
			"root-group sweep for levels 0/1",
		}
	default:
		return []string{
			"pendant trim (each trimmed edge is a bridge)",
			"BFS forest + bridge-variant single-parent-only pruning",
			"level-ordered edge-avoiding constrained BFSes",
			"connected components of the graph minus bridges (adaptive BFS + LP)",
		}
	}
}
