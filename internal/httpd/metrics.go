package httpd

import (
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"
)

// bucketBounds are the fixed latency histogram boundaries. Fixed buckets keep
// observation to one array walk and no allocation on the hot path, and make
// histograms from different runs directly comparable.
var bucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// bucketNames has one label per bound plus the overflow bucket.
var bucketNames = [...]string{
	"le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
}

// kindMetrics accumulates counters for one query kind. All fields are
// atomics: observation happens on every request with no lock.
type kindMetrics struct {
	count    atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	sumNanos atomic.Uint64
	buckets  [len(bucketBounds) + 1]atomic.Uint64
}

func (k *kindMetrics) observe(status int, d time.Duration) {
	k.count.Add(1)
	if status >= http.StatusBadRequest {
		k.errors.Add(1)
	}
	if d < 0 {
		d = 0
	}
	k.sumNanos.Add(uint64(d))
	i := 0
	for i < len(bucketBounds) && d > bucketBounds[i] {
		i++
	}
	k.buckets[i].Add(1)
}

// metrics is the front-end-wide collector. The kind map is written only
// during New (endpoint registration), so reads need no lock.
type metrics struct {
	kinds   map[string]*kindMetrics
	rejects atomic.Uint64 // 429 responses (admission-control sheds)
}

func newMetrics() *metrics {
	return &metrics{kinds: make(map[string]*kindMetrics)}
}

func (m *metrics) kind(name string) *kindMetrics {
	k, ok := m.kinds[name]
	if !ok {
		k = &kindMetrics{}
		m.kinds[name] = k
	}
	return k
}

// KindMetrics is the exported per-endpoint slice of a metrics snapshot.
type KindMetrics struct {
	// Count is how many requests this endpoint has served (any status).
	Count uint64 `json:"count"`
	// Errors is how many of them answered with a 4xx/5xx status.
	Errors uint64 `json:"errors"`
	// SumSeconds is total handler latency, for mean-latency derivation.
	SumSeconds float64 `json:"sum_seconds"`
	// Latency maps fixed bucket labels (le_100us .. le_10s, inf) to counts.
	// Buckets are disjoint, not cumulative: each request lands in exactly one.
	Latency map[string]uint64 `json:"latency"`
}

// SingleflightMetrics summarizes result-cell deduplication across every
// retained snapshot: a hit answered from a cached or already-in-flight
// kernel, a miss started one.
type SingleflightMetrics struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	// Epoch is the current (latest published) epoch.
	Epoch uint64 `json:"epoch"`
	// InFlight is how many requests are inside handlers right now.
	InFlight int64 `json:"in_flight"`
	// RetainedEpochs is how many past snapshots the pinned-read LRU holds.
	RetainedEpochs int `json:"retained_epochs"`
	// AdmissionRejects counts requests shed with 429 Too Many Requests.
	AdmissionRejects uint64 `json:"admission_rejects"`
	// Singleflight reports the result-cell hit/miss tallies.
	Singleflight SingleflightMetrics `json:"singleflight"`
	// Kinds holds per-endpoint counters keyed by query kind.
	Kinds map[string]KindMetrics `json:"kinds"`
	// Runtime is the Go runtime's state at the scrape.
	Runtime RuntimeMetrics `json:"runtime"`
}

// RuntimeMetrics is the Go runtime's view of the process, read through
// runtime/metrics when /metrics is scraped and never on a request path.
// Scheduler latency is how long goroutines waited, runnable, for a CPU;
// its tail next to a read tail tells a stalled host from a slow handler.
// GC cycles and the heap goal and live bytes show what a smaller heap
// costs: a lower goal means more cycles for the same allocation.
type RuntimeMetrics struct {
	// SchedLatencyP50Ms, P99Ms and P999Ms are quantiles of the scheduler
	// latency histogram since process start, each the upper bound of the
	// bucket it falls in.
	SchedLatencyP50Ms  float64 `json:"sched_latency_p50_ms"`
	SchedLatencyP99Ms  float64 `json:"sched_latency_p99_ms"`
	SchedLatencyP999Ms float64 `json:"sched_latency_p999_ms"`
	// GCCycles counts completed GC cycles since process start.
	GCCycles uint64 `json:"gc_cycles"`
	// HeapGoalBytes is the heap size the current GC cycle aims to finish
	// under; HeapLiveBytes the heap the last GC marked live.
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
}

// runtimeSampleNames are the runtime/metrics keys RuntimeMetrics reads, in
// readRuntime's order.
var runtimeSampleNames = [...]string{
	"/sched/latencies:seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/goal:bytes",
	"/gc/heap/live:bytes",
}

// readRuntime reads RuntimeMetrics. A key the running Go version does not
// support reads as zero.
func readRuntime() RuntimeMetrics {
	var s [len(runtimeSampleNames)]rtmetrics.Sample
	for i, name := range runtimeSampleNames {
		s[i].Name = name
	}
	rtmetrics.Read(s[:])
	var r RuntimeMetrics
	if s[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		r.SchedLatencyP50Ms = 1e3 * histQuantile(h, 0.5)
		r.SchedLatencyP99Ms = 1e3 * histQuantile(h, 0.99)
		r.SchedLatencyP999Ms = 1e3 * histQuantile(h, 0.999)
	}
	u := func(v rtmetrics.Value) uint64 {
		if v.Kind() == rtmetrics.KindUint64 {
			return v.Uint64()
		}
		return 0
	}
	r.GCCycles, r.HeapGoalBytes, r.HeapLiveBytes = u(s[1].Value), u(s[2].Value), u(s[3].Value)
	return r
}

// histQuantile returns the upper bound of the bucket holding the q-quantile
// of h (its lower bound for the open-ended last bucket), or 0 when h is
// empty. It is monotone in q.
func histQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := max(1, uint64(math.Ceil(q*float64(total))))
	var cum uint64
	for i, c := range h.Counts {
		if cum += c; cum >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// Metrics assembles a point-in-time snapshot of every counter.
func (s *Server) Metrics() MetricsSnapshot {
	hits, misses := s.srv.SingleflightStats()
	sf := SingleflightMetrics{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		sf.HitRate = float64(hits) / float64(total)
	}
	out := MetricsSnapshot{
		Epoch:            s.srv.Epoch(),
		InFlight:         s.InFlight(),
		RetainedEpochs:   s.retainedCount(),
		AdmissionRejects: s.met.rejects.Load(),
		Singleflight:     sf,
		Kinds:            make(map[string]KindMetrics, len(s.met.kinds)),
		Runtime:          readRuntime(),
	}
	for name, k := range s.met.kinds {
		km := KindMetrics{
			Count:      k.count.Load(),
			Errors:     k.errors.Load(),
			SumSeconds: time.Duration(k.sumNanos.Load()).Seconds(),
			Latency:    make(map[string]uint64, len(bucketNames)),
		}
		for i := range k.buckets {
			km.Latency[bucketNames[i]] = k.buckets[i].Load()
		}
		out.Kinds[name] = km
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
