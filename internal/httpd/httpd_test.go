// End-to-end tests for the HTTP front-end: every endpoint checked against
// the serial-DFS oracle across multiple apply epochs, plus the serving
// contracts (pinned epochs, deadlines, load shedding, graceful drain) that
// don't exist below the HTTP layer.
package httpd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aquila"
	"aquila/internal/baseline/serialdfs"
	"aquila/internal/gen"
	"aquila/internal/httpd"
)

// newTS mounts the front-end on an httptest server with the drain context
// wired the way cmd/aquilad wires it.
func newTS(t *testing.T, front *httpd.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(front.Handler())
	ts.Config.BaseContext = front.BaseContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		front.Close()
	})
	return ts
}

// getStatus performs a GET (with an optional pinned epoch header) and
// returns the status and raw body.
func getStatus(t *testing.T, ts *httptest.Server, path, epoch string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != "" {
		req.Header.Set(httpd.EpochHeader, epoch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// mustGet decodes a 200 response into out.
func mustGet(t *testing.T, ts *httptest.Server, path, epoch string, out any) {
	t.Helper()
	status, body := getStatus(t, ts, path, epoch)
	if status != http.StatusOK {
		t.Fatalf("GET %s (epoch %q) = %d: %s", path, epoch, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: bad body %s: %v", path, body, err)
	}
}

func postApply(t *testing.T, ts *httptest.Server, edges [][2]aquila.V) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(httpd.ApplyRequest{Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// labelStats reduces a per-vertex label array to (distinct labels, largest
// class size).
func labelStats(labels []uint32) (num, largest int) {
	sizes := make(map[uint32]int)
	for _, l := range labels {
		sizes[l]++
	}
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	return len(sizes), largest
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestEndpointsMatchOracleAcrossEpochs drives every query endpoint against
// the serial-DFS oracle on independently reconstructed graphs, across four
// epochs separated by POST /v1/apply batches.
func TestEndpointsMatchOracleAcrossEpochs(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(42))
	var edges []aquila.Edge
	for len(edges) < 900 {
		u, v := aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))
		if u != v {
			edges = append(edges, aquila.Edge{U: u, V: v})
		}
	}
	half := len(edges) / 2

	eng := aquila.NewDirectedEngine(aquila.NewDirected(n, edges[:half]), aquila.Options{Threads: 2})
	srv := aquila.NewServer(eng, aquila.ServerConfig{})
	front := httpd.New(srv, httpd.Config{})
	ts := newTS(t, front)

	applied := half
	for epoch := uint64(0); ; epoch++ {
		og := aquila.NewDirected(n, edges[:applied])
		ug := aquila.Undirect(og)
		ccLabels := serialdfs.CC(ug)
		wantCC, wantLargest := labelStats(ccLabels)

		var cc httpd.CCResponse
		mustGet(t, ts, "/v1/cc", "", &cc)
		if cc.Epoch != epoch || cc.NumComponents != wantCC || cc.LargestSize != wantLargest {
			t.Fatalf("epoch %d: /v1/cc = %+v, want epoch=%d components=%d largest=%d",
				epoch, cc, epoch, wantCC, wantLargest)
		}

		wantSCC, wantSCCLargest := labelStats(serialdfs.SCC(og))
		var scc httpd.CCResponse
		mustGet(t, ts, "/v1/scc", "", &scc)
		if scc.NumComponents != wantSCC || scc.LargestSize != wantSCCLargest {
			t.Fatalf("epoch %d: /v1/scc = %+v, want components=%d largest=%d",
				epoch, scc, wantSCC, wantSCCLargest)
		}

		bt := serialdfs.BiCC(ug)
		var bicc httpd.BiCCResponse
		mustGet(t, ts, "/v1/bicc", "", &bicc)
		if bicc.NumBlocks != bt.NumBlocks || bicc.NumArticulationPoints != countTrue(bt.IsAP) {
			t.Fatalf("epoch %d: /v1/bicc = %+v, want blocks=%d aps=%d",
				epoch, bicc, bt.NumBlocks, countTrue(bt.IsAP))
		}

		wantBridges := countTrue(serialdfs.Bridges(ug))
		wantBg, wantBgLargest := labelStats(serialdfs.BgCC(ug))
		var bgcc httpd.BgCCResponse
		mustGet(t, ts, "/v1/bgcc", "", &bgcc)
		if bgcc.NumComponents != wantBg || bgcc.LargestSize != wantBgLargest ||
			bgcc.NumBridges != wantBridges {
			t.Fatalf("epoch %d: /v1/bgcc = %+v, want components=%d largest=%d bridges=%d",
				epoch, bgcc, wantBg, wantBgLargest, wantBridges)
		}

		var largest httpd.LargestCCResponse
		mustGet(t, ts, fmt.Sprintf("/v1/largest-cc?contains=%d", n+1000), "", &largest)
		if largest.Size != wantLargest {
			t.Fatalf("epoch %d: /v1/largest-cc size = %d, want %d", epoch, largest.Size, wantLargest)
		}
		if largest.Contains == nil || *largest.Contains {
			t.Fatalf("epoch %d: contains(out-of-range) = %v, want false", epoch, largest.Contains)
		}
		mustGet(t, ts, fmt.Sprintf("/v1/largest-cc?contains=%d", largest.Pivot), "", &largest)
		if largest.Contains == nil || !*largest.Contains {
			t.Fatalf("epoch %d: contains(pivot %d) = %v, want true", epoch, largest.Pivot, largest.Contains)
		}

		var aps httpd.APsResponse
		mustGet(t, ts, "/v1/aps", "", &aps)
		gotAP := make([]bool, n)
		for _, v := range aps.ArticulationPoints {
			gotAP[v] = true
		}
		if aps.Count != countTrue(bt.IsAP) || aps.Truncated {
			t.Fatalf("epoch %d: /v1/aps count=%d truncated=%v, want count=%d",
				epoch, aps.Count, aps.Truncated, countTrue(bt.IsAP))
		}
		for v := 0; v < n; v++ {
			if gotAP[v] != bt.IsAP[v] {
				t.Fatalf("epoch %d: AP set diverges at vertex %d", epoch, v)
			}
		}

		var brs httpd.BridgesResponse
		mustGet(t, ts, "/v1/bridges", "", &brs)
		if brs.Count != wantBridges || len(brs.Bridges) != wantBridges {
			t.Fatalf("epoch %d: /v1/bridges count=%d len=%d, want %d",
				epoch, brs.Count, len(brs.Bridges), wantBridges)
		}

		wantHist := make(map[int]int)
		sizes := make(map[uint32]int)
		for _, l := range ccLabels {
			sizes[l]++
		}
		for _, s := range sizes {
			wantHist[s]++
		}
		var hist httpd.HistogramResponse
		mustGet(t, ts, "/v1/histogram", "", &hist)
		if len(hist.Histogram) != len(wantHist) {
			t.Fatalf("epoch %d: histogram has %d sizes, want %d", epoch, len(hist.Histogram), len(wantHist))
		}
		for s, c := range wantHist {
			if hist.Histogram[s] != c {
				t.Fatalf("epoch %d: histogram[%d] = %d, want %d", epoch, s, hist.Histogram[s], c)
			}
		}

		for _, pair := range [][2]aquila.V{{0, 1}, {0, aquila.V(n - 1)}, {5, aquila.V(n / 2)}} {
			var conn httpd.ConnectedResponse
			mustGet(t, ts, fmt.Sprintf("/v1/connected?u=%d&v=%d", pair[0], pair[1]), "", &conn)
			want := ccLabels[pair[0]] == ccLabels[pair[1]]
			if conn.Connected != want {
				t.Fatalf("epoch %d: connected(%d,%d) = %v, want %v",
					epoch, pair[0], pair[1], conn.Connected, want)
			}
		}

		if applied >= len(edges) {
			if epoch < 3 {
				t.Fatalf("exercised only %d epochs, want >= 3 applies", epoch)
			}
			break
		}
		next := applied + 150
		if next > len(edges) {
			next = len(edges)
		}
		batch := make([][2]aquila.V, 0, next-applied)
		for _, e := range edges[applied:next] {
			batch = append(batch, [2]aquila.V{e.U, e.V})
		}
		status, body := postApply(t, ts, batch)
		if status != http.StatusOK {
			t.Fatalf("apply at epoch %d: status %d: %s", epoch, status, body)
		}
		var ar httpd.ApplyResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Epoch != epoch+1 {
			t.Fatalf("apply published epoch %d, want %d", ar.Epoch, epoch+1)
		}
		applied = next
	}
}

// TestPinnedEpochReads pins past epochs via the Aquila-Epoch header and
// checks each one answers as of its own graph, with 404 for unpublished
// epochs, 410 for evicted ones, and 400 for garbage headers.
func TestPinnedEpochReads(t *testing.T) {
	// A path grown one edge per epoch: epoch k has k edges, n-k components.
	const n = 5
	eng := aquila.NewEngine(aquila.NewUndirected(n, nil), aquila.Options{Threads: 1})
	front := httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}), httpd.Config{})
	ts := newTS(t, front)

	for k := 0; k < n-1; k++ {
		if status, body := postApply(t, ts, [][2]aquila.V{{aquila.V(k), aquila.V(k + 1)}}); status != http.StatusOK {
			t.Fatalf("apply %d: %d: %s", k, status, body)
		}
	}
	for k := 0; k < n; k++ {
		var cc httpd.CCResponse
		mustGet(t, ts, "/v1/cc", fmt.Sprint(k), &cc)
		if cc.Epoch != uint64(k) || cc.NumComponents != n-k {
			t.Fatalf("pinned epoch %d: %+v, want epoch=%d components=%d", k, cc, k, n-k)
		}
	}
	if status, _ := getStatus(t, ts, "/v1/cc", "99"); status != http.StatusNotFound {
		t.Fatalf("future epoch: status %d, want 404", status)
	}
	if status, _ := getStatus(t, ts, "/v1/cc", "abc"); status != http.StatusBadRequest {
		t.Fatalf("garbage epoch header: status %d, want 400", status)
	}

	// A 1-epoch retention window: every superseded epoch is evicted.
	eng2 := aquila.NewEngine(aquila.NewUndirected(n, nil), aquila.Options{Threads: 1})
	front2 := httpd.New(aquila.NewServer(eng2, aquila.ServerConfig{}), httpd.Config{RetainEpochs: 1})
	ts2 := newTS(t, front2)
	postApply(t, ts2, [][2]aquila.V{{0, 1}})
	postApply(t, ts2, [][2]aquila.V{{1, 2}})
	for _, old := range []string{"0", "1"} {
		status, body := getStatus(t, ts2, "/v1/cc", old)
		if status != http.StatusGone {
			t.Fatalf("evicted epoch %s: status %d, want 410: %s", old, status, body)
		}
	}
	var cc httpd.CCResponse
	mustGet(t, ts2, "/v1/cc", "2", &cc) // current epoch always resolvable
	if cc.Epoch != 2 {
		t.Fatalf("current pinned read epoch = %d, want 2", cc.Epoch)
	}
}

// TestRequestValidation covers the parameter error paths: missing and
// out-of-range vertices, bad timeouts, expired deadlines, and apply bodies
// that must be rejected.
func TestRequestValidation(t *testing.T) {
	const n = 100
	g := gen.RandomUndirected(n, 300, 3)
	eng := aquila.NewEngine(g, aquila.Options{Threads: 1})
	front := httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}),
		httpd.Config{MaxBatchEdges: 4})
	ts := newTS(t, front)

	for path, want := range map[string]int{
		"/v1/connected":             http.StatusBadRequest, // missing u, v
		"/v1/connected?u=0":         http.StatusBadRequest, // missing v
		"/v1/connected?u=0&v=100":   http.StatusBadRequest, // v out of range
		"/v1/connected?u=x&v=1":     http.StatusBadRequest,
		"/v1/cc?timeout=bogus":      http.StatusBadRequest,
		"/v1/cc?timeout=-5s":        http.StatusBadRequest,
		"/v1/cc?timeout=1ns":        http.StatusGatewayTimeout,
		"/v1/aps?limit=-1":          http.StatusBadRequest,
		"/v1/largest-cc?contains=x": http.StatusBadRequest,
		"/v1/nosuch":                http.StatusNotFound,
		"/v1/scc":                   http.StatusBadRequest, // undirected engine
	} {
		if status, body := getStatus(t, ts, path, ""); status != want {
			t.Errorf("GET %s = %d, want %d (%s)", path, status, want, body)
		}
	}

	// Apply: malformed JSON, unknown fields, oversized batches, and
	// out-of-range endpoints are all client errors that publish no epoch.
	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/apply", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := post(`{"edges": [[0, 1]`); s != http.StatusBadRequest {
		t.Errorf("truncated body: %d, want 400", s)
	}
	if s := post(`{"banana": 1}`); s != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", s)
	}
	if s := post(`{"edges": [[0,1],[1,2],[2,3],[3,4],[4,5]]}`); s != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d, want 413", s)
	}
	if s := post(`{"edges": [[0, 100]]}`); s != http.StatusBadRequest {
		t.Errorf("out-of-range endpoint: %d, want 400", s)
	}
	var ep httpd.EpochResponse
	mustGet(t, ts, "/v1/epoch", "", &ep)
	if ep.Epoch != 0 || ep.Vertices != n {
		t.Fatalf("epoch after rejected applies = %+v, want epoch 0, %d vertices", ep, n)
	}
}

// TestOverloadedReturns429 saturates a 1-slot/no-queue server and checks
// shed requests answer 429 with a Retry-After hint while at least one
// request still succeeds — and that nothing hangs.
func TestOverloadedReturns429(t *testing.T) {
	// The kernel must outlive a scheduler preemption slice (~10ms) for the
	// callers to overlap on an effectively single-CPU host, so the graph is
	// large; singleflight is disabled so every request wants its own slot.
	g := gen.RandomUndirected(300000, 1000000, 7)
	for round := 0; round < 10; round++ {
		eng := aquila.NewEngine(g, aquila.Options{Threads: 1})
		srv := aquila.NewServer(eng, aquila.ServerConfig{
			MaxInFlight: 1, MaxQueue: -1, DisableSingleflight: true,
		})
		front := httpd.New(srv, httpd.Config{})
		ts := newTS(t, front)

		const callers = 8
		statuses := make([]int, callers)
		retryAfter := make([]string, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := ts.Client().Get(ts.URL + "/v1/cc")
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				statuses[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}(i)
		}
		wg.Wait()

		shed, ok := 0, 0
		for i, s := range statuses {
			switch s {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if retryAfter[i] == "" {
					t.Fatalf("429 without Retry-After")
				}
			default:
				t.Fatalf("caller %d: unexpected status %d", i, s)
			}
		}
		if shed == 0 {
			continue // callers never overlapped this round; try again
		}
		if ok == 0 {
			t.Fatal("every caller was shed; the slot holder should have succeeded")
		}
		var m httpd.MetricsSnapshot
		mustGet(t, ts, "/metrics", "", &m)
		if m.AdmissionRejects != uint64(shed) {
			t.Fatalf("admission_rejects = %d, want %d", m.AdmissionRejects, shed)
		}
		return
	}
	t.Fatal("never saturated the 1-slot server in 10 rounds")
}

// TestConcurrentApplyQueryStorm races apply batches against reads on every
// endpoint; run under -race this is the serving layer's data-race proof at
// the HTTP boundary. All requests must succeed, and the final epoch must
// match the oracle.
func TestConcurrentApplyQueryStorm(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(9))
	var edges []aquila.Edge
	for len(edges) < 1200 {
		u, v := aquila.V(rng.Intn(n)), aquila.V(rng.Intn(n))
		if u != v {
			edges = append(edges, aquila.Edge{U: u, V: v})
		}
	}
	half := len(edges) / 2
	eng := aquila.NewDirectedEngine(aquila.NewDirected(n, edges[:half]), aquila.Options{Threads: 2})
	srv := aquila.NewServer(eng, aquila.ServerConfig{MaxInFlight: 4, MaxQueue: 256})
	front := httpd.New(srv, httpd.Config{})
	ts := newTS(t, front)

	paths := []string{
		"/v1/cc", "/v1/scc", "/v1/bicc", "/v1/bgcc", "/v1/largest-cc",
		"/v1/aps", "/v1/bridges", "/v1/histogram", "/v1/epoch",
		"/v1/connected?u=1&v=2", "/metrics",
	}
	var wg sync.WaitGroup
	// One writer streams the second half of the edges in 10 batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := half; lo < len(edges); lo += 60 {
			hi := lo + 60
			if hi > len(edges) {
				hi = len(edges)
			}
			batch := make([][2]aquila.V, 0, hi-lo)
			for _, e := range edges[lo:hi] {
				batch = append(batch, [2]aquila.V{e.U, e.V})
			}
			if status, body := postApply(t, ts, batch); status != http.StatusOK {
				t.Errorf("storm apply: %d: %s", status, body)
				return
			}
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < 12; q++ {
				path := paths[(r+q)%len(paths)]
				if status, body := getStatus(t, ts, path, ""); status != http.StatusOK {
					t.Errorf("storm GET %s: %d: %s", path, status, body)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	og := aquila.NewDirected(n, edges)
	wantCC, wantLargest := labelStats(serialdfs.CC(aquila.Undirect(og)))
	var cc httpd.CCResponse
	mustGet(t, ts, "/v1/cc", "", &cc)
	if cc.Epoch != 10 || cc.NumComponents != wantCC || cc.LargestSize != wantLargest {
		t.Fatalf("post-storm /v1/cc = %+v, want epoch=10 components=%d largest=%d",
			cc, wantCC, wantLargest)
	}
}

// TestGracefulShutdownDrainsInflight checks both halves of the shutdown
// contract: Shutdown waits for a running kernel to answer, and Close
// cancels kernels that outstay the grace window — either way InFlight
// drains to zero and nothing leaks.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	g := gen.RandomUndirected(300000, 1000000, 7) // kernel long enough to observe in flight

	// Clean drain: the in-flight request finishes, Shutdown returns nil.
	eng := aquila.NewEngine(g, aquila.Options{Threads: 1})
	front := httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}), httpd.Config{})
	ts := httptest.NewUnstartedServer(front.Handler())
	ts.Config.BaseContext = front.BaseContext
	ts.Start()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/cc")
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitInflight(t, front, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := ts.Config.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	front.Close()
	if s := <-status; s != http.StatusOK {
		t.Fatalf("drained request status = %d, want 200", s)
	}
	waitInflight(t, front, 0)

	// Forced drain: Close fires while the kernel runs; the kernel aborts at
	// its next cancellation checkpoint and the handler still answers.
	eng2 := aquila.NewEngine(g, aquila.Options{Threads: 1})
	front2 := httpd.New(aquila.NewServer(eng2, aquila.ServerConfig{}), httpd.Config{})
	ts2 := httptest.NewUnstartedServer(front2.Handler())
	ts2.Config.BaseContext = front2.BaseContext
	ts2.Start()
	defer ts2.Close()
	status2 := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts2.URL + "/v1/cc")
		if err != nil {
			status2 <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status2 <- resp.StatusCode
	}()
	waitInflight(t, front2, 1)
	front2.Close()
	select {
	case s := <-status2:
		// 503 when the drain context cancelled the kernel; 200 if the kernel
		// beat the cancellation to the finish line.
		if s != http.StatusServiceUnavailable && s != http.StatusOK {
			t.Fatalf("force-drained request status = %d, want 503 or 200", s)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request hung after Close — kernel not cancelled")
	}
	waitInflight(t, front2, 0)
}

func waitInflight(t *testing.T, front *httpd.Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for front.InFlight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want %d", front.InFlight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsEndpoint checks the counter surface: per-kind counts, error
// tallies, disjoint latency buckets summing to the count, the singleflight
// hit rate, and the epoch gauge.
func TestMetricsEndpoint(t *testing.T) {
	g := gen.RandomUndirected(200, 600, 13)
	eng := aquila.NewEngine(g, aquila.Options{Threads: 1})
	front := httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}), httpd.Config{})
	ts := newTS(t, front)

	for i := 0; i < 3; i++ {
		var cc httpd.CCResponse
		mustGet(t, ts, "/v1/cc", "", &cc)
	}
	if status, _ := getStatus(t, ts, "/v1/connected?u=0", ""); status != http.StatusBadRequest {
		t.Fatalf("missing v: status %d, want 400", status)
	}
	postApply(t, ts, [][2]aquila.V{{0, 1}})

	var m httpd.MetricsSnapshot
	mustGet(t, ts, "/metrics", "", &m)
	if m.Epoch != 1 {
		t.Fatalf("epoch gauge = %d, want 1", m.Epoch)
	}
	cc := m.Kinds["cc"]
	if cc.Count != 3 || cc.Errors != 0 {
		t.Fatalf("cc kind = %+v, want count=3 errors=0", cc)
	}
	var bucketSum uint64
	for _, c := range cc.Latency {
		bucketSum += c
	}
	if bucketSum != cc.Count {
		t.Fatalf("cc latency buckets sum to %d, want %d", bucketSum, cc.Count)
	}
	if conn := m.Kinds["connected"]; conn.Count != 1 || conn.Errors != 1 {
		t.Fatalf("connected kind = %+v, want count=1 errors=1", conn)
	}
	if apply := m.Kinds["apply"]; apply.Count != 1 {
		t.Fatalf("apply kind = %+v, want count=1", apply)
	}
	// Three /v1/cc calls on one epoch: the first misses (and computes), the
	// other two hit the warm cell.
	sf := m.Singleflight
	if sf.Misses == 0 || sf.Hits < 2 {
		t.Fatalf("singleflight = %+v, want >=1 miss and >=2 hits", sf)
	}
	if sf.HitRate <= 0 || sf.HitRate >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", sf.HitRate)
	}
	if m.AdmissionRejects != 0 {
		t.Fatalf("admission_rejects = %d, want 0", m.AdmissionRejects)
	}
	if m.RetainedEpochs != 2 {
		t.Fatalf("retained_epochs = %d, want 2", m.RetainedEpochs)
	}
}

// TestMetricsRuntime checks the runtime block of /metrics: every field is
// in the JSON, the scheduler-latency quantiles are ordered, the heap gauges
// are set, and GC cycles grow across a forced GC between two scrapes.
func TestMetricsRuntime(t *testing.T) {
	eng := aquila.NewEngine(gen.RandomUndirected(100, 300, 5), aquila.Options{Threads: 1})
	ts := newTS(t, httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}), httpd.Config{}))

	var raw struct {
		Runtime map[string]any `json:"runtime"`
	}
	mustGet(t, ts, "/metrics", "", &raw)
	for _, k := range []string{"sched_latency_p50_ms", "sched_latency_p99_ms", "sched_latency_p999_ms",
		"gc_cycles", "heap_goal_bytes", "heap_live_bytes"} {
		if _, ok := raw.Runtime[k]; !ok {
			t.Fatalf("runtime metrics lack %q: %v", k, raw.Runtime)
		}
	}
	var m1, m2 httpd.MetricsSnapshot
	mustGet(t, ts, "/metrics", "", &m1)
	runtime.GC()
	mustGet(t, ts, "/metrics", "", &m2)
	for _, m := range []httpd.MetricsSnapshot{m1, m2} {
		r := m.Runtime
		if r.SchedLatencyP50Ms < 0 || r.SchedLatencyP50Ms > r.SchedLatencyP99Ms || r.SchedLatencyP99Ms > r.SchedLatencyP999Ms {
			t.Fatalf("scheduler latency quantiles out of order: %+v", r)
		}
		if r.HeapGoalBytes == 0 {
			t.Fatalf("heap goal unset: %+v", r)
		}
	}
	// The live heap is measured by a GC; the forced one has run.
	if m2.Runtime.HeapLiveBytes == 0 {
		t.Fatalf("live heap unset after a GC: %+v", m2.Runtime)
	}
	if m2.Runtime.GCCycles <= m1.Runtime.GCCycles {
		t.Fatalf("gc cycles %d then %d across a forced GC", m1.Runtime.GCCycles, m2.Runtime.GCCycles)
	}
}

// TestListTruncation checks the aps/bridges list cap and the limit
// parameter.
func TestListTruncation(t *testing.T) {
	// A star: the hub is the single AP and every edge is a bridge.
	const n = 50
	edges := make([]aquila.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, aquila.Edge{U: 0, V: aquila.V(v)})
	}
	eng := aquila.NewEngine(aquila.NewUndirected(n, edges), aquila.Options{Threads: 1})
	front := httpd.New(aquila.NewServer(eng, aquila.ServerConfig{}), httpd.Config{MaxListItems: 10})
	ts := newTS(t, front)

	var brs httpd.BridgesResponse
	mustGet(t, ts, "/v1/bridges", "", &brs)
	if brs.Count != n-1 || len(brs.Bridges) != 10 || !brs.Truncated {
		t.Fatalf("bridges = count=%d len=%d truncated=%v, want count=%d len=10 truncated",
			brs.Count, len(brs.Bridges), brs.Truncated, n-1)
	}
	mustGet(t, ts, "/v1/bridges?limit=3", "", &brs)
	if len(brs.Bridges) != 3 || !brs.Truncated {
		t.Fatalf("bridges limit=3: len=%d truncated=%v", len(brs.Bridges), brs.Truncated)
	}
	var aps httpd.APsResponse
	mustGet(t, ts, "/v1/aps", "", &aps)
	if aps.Count != 1 || aps.Truncated || len(aps.ArticulationPoints) != 1 || aps.ArticulationPoints[0] != 0 {
		t.Fatalf("aps = %+v, want the hub only", aps)
	}
}
