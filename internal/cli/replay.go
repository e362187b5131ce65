package cli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"aquila"
)

// ReplayUpdates reads an update script from r and replays it against the
// engine through the incremental layer, returning a per-batch transcript.
//
// Script format, one directive per line:
//
//	u v        stage inserting the edge (arc, on directed engines) u→v
//	- u v      stage deleting the edge (arc) u→v; the first flushed batch
//	           containing a delete promotes the engine to the fully dynamic
//	           connectivity structure
//	---        flush staged ops as one batch (a blank line works too)
//	? u v      flush, then answer "are u and v connected?"
//	# ...      comment, ignored
//
// When batchSize > 0, staged ops also auto-flush every batchSize lines, so
// plain edge-list files replay as a stream of fixed-size batches. Any ops
// still staged at EOF are flushed as a final batch. Insert-only batches take
// the Apply fast path and produce exactly the historical transcript lines;
// batches containing deletes report the deletion and split counters too.
func ReplayUpdates(eng *aquila.Engine, r io.Reader, batchSize int) (string, error) {
	var (
		out     strings.Builder
		staged  []aquila.Update
		hasDel  bool
		batchNo int
	)
	n := eng.NumVertices() // Apply never grows the vertex set
	flush := func() error {
		if len(staged) == 0 {
			return nil
		}
		var res *aquila.ApplyResult
		var err error
		if hasDel {
			res, err = eng.ApplyUpdates(staged)
		} else {
			// Insert-only batches keep the historical Apply path (and its
			// transcript format) byte for byte.
			edges := make([]aquila.Edge, len(staged))
			for i, up := range staged {
				edges[i] = aquila.Edge{U: up.U, V: up.V}
			}
			res, err = eng.Apply(edges)
		}
		if err != nil {
			return err
		}
		batchNo++
		if hasDel {
			fmt.Fprintf(&out, "batch %d: %d ops in, %d new, %d deleted, %d merges, %d splits, %d components",
				batchNo, len(staged), res.NewEdges, res.DeletedEdges, res.Merged, res.Split, res.Components)
		} else {
			fmt.Fprintf(&out, "batch %d: %d edges in, %d new, %d merges, %d components",
				batchNo, len(staged), res.NewEdges, res.Merged, res.Components)
		}
		if res.Rebuilt {
			out.WriteString(" (rebuilt)")
		}
		out.WriteByte('\n')
		staged = staged[:0]
		hasDel = false
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || text == "---":
			if err := flush(); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
		case strings.HasPrefix(text, "#"):
			// comment
		case strings.HasPrefix(text, "?"):
			u, v, err := parsePair(strings.TrimSpace(strings.TrimPrefix(text, "?")))
			if err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			if int(u) >= n || int(v) >= n {
				return "", fmt.Errorf("line %d: vertex out of range [0,%d)", line, n)
			}
			if err := flush(); err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			fmt.Fprintf(&out, "connected(%d, %d) = %v\n", u, v, eng.Connected(u, v))
		case strings.HasPrefix(text, "-"):
			// Note "---" (and blank) matched above, so this is a delete op.
			u, v, err := parsePair(strings.TrimSpace(strings.TrimPrefix(text, "-")))
			if err != nil {
				return "", fmt.Errorf("line %d: bad delete op: %v", line, err)
			}
			if int(u) >= n || int(v) >= n {
				return "", fmt.Errorf("line %d: bad delete op: vertex out of range [0,%d)", line, n)
			}
			staged = append(staged, aquila.Delete(u, v))
			hasDel = true
			if batchSize > 0 && len(staged) >= batchSize {
				if err := flush(); err != nil {
					return "", fmt.Errorf("line %d: %v", line, err)
				}
			}
		default:
			u, v, err := parsePair(text)
			if err != nil {
				return "", fmt.Errorf("line %d: %v", line, err)
			}
			staged = append(staged, aquila.Insert(u, v))
			if batchSize > 0 && len(staged) >= batchSize {
				if err := flush(); err != nil {
					return "", fmt.Errorf("line %d: %v", line, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if err := flush(); err != nil {
		return "", err
	}
	return strings.TrimRight(out.String(), "\n"), nil
}

// parsePair parses "u v" or "u,v" into two vertex ids.
func parsePair(s string) (aquila.V, aquila.V, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("want two vertex ids, got %q", s)
	}
	u, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex id %q: %v", fields[0], err)
	}
	v, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex id %q: %v", fields[1], err)
	}
	return aquila.V(u), aquila.V(v), nil
}
