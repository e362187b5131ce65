package main

import (
	"slices"
	"time"
)

// span is one timed call into a layer. Spans of one query or request share
// Req; Parent is 0 for a root span.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Req    int            `json:"req"`
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, req int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id, attaching attrs given as key, value pairs.
func (t *tracer) end(id int, attrs ...any) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]any)
		}
		s.Attrs[attrs[i].(string)] = attrs[i+1]
	}
	return s.dur()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(parent, req int, name string, f func()) time.Duration {
	id := t.begin(parent, req, name)
	f()
	return t.end(id)
}

// selfTimes maps each span id to its duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][][2]time.Duration)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
		covered := time.Duration(0)
		var cur [2]time.Duration
		for i, x := range iv {
			switch {
			case i == 0:
				cur = x
			case x[0] <= cur[1]:
				cur[1] = max(cur[1], x[1])
			default:
				covered += cur[1] - cur[0]
				cur = x
			}
		}
		if len(iv) > 0 {
			covered += cur[1] - cur[0]
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}
