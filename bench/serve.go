package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aquila/internal/gen"
	"aquila/internal/httpd"
)

// daemon is one aquilad process serving a generated graph file.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer // read only after the process has been waited for
	done   chan error
}

// startDaemon spawns aquilad and returns once /v1/epoch answers 200, with
// the time from spawn to that answer.
func startDaemon(bin, graphPath string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-graph", graphPath, "-listen", addr, "-quiet", "-grace", "5s")
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting aquilad: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("aquilad exited before serving (%v): %s", err, d.stderr.String())
		default:
		}
		if resp, err := poll.Get(d.base + "/v1/epoch"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("aquilad not ready after 2m")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks aquilad to drain (SIGTERM) and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("aquilad: %v: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("aquilad did not drain within 30s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// conn is one keep-alive client connection: requests on it are sequential.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// do sends one request, pinned to epoch when epoch >= 0, and decodes a 200
// answer into out. Any other status, and any transport error, is a failure.
func (c *conn) do(method, path string, epoch int64, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if epoch >= 0 {
		req.Header.Set(httpd.EpochHeader, strconv.FormatInt(epoch, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// clock is the pacer's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// sample is one open-loop request. Late is how long after its due tick it
// was sent; Lat how long after its due tick its answer arrived, so a stall
// is charged to every request queued behind it.
type sample struct {
	Kind      string
	Late, Lat time.Duration
	Sent      time.Duration // from send to answer: the client-observed service time
	Err       error
}

// pace sends ops in order on one connection, each at its due time or as soon
// as the previous one has returned, whichever is later.
func pace(clk clock, start time.Time, ops []op, send func(op) error) []sample {
	out := make([]sample, 0, len(ops))
	for _, o := range ops {
		due := start.Add(o.Due)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		err := send(o)
		end := clk.Now()
		out = append(out, sample{Kind: o.Kind, Late: sent.Sub(due), Lat: end.Sub(due), Sent: end.Sub(sent), Err: err})
	}
	return out
}

// updateTotals sums the apply responses of a run.
type updateTotals struct {
	NewEdges, Merged, DeletedEdges, Split, Rebuilds int
}

func (u *updateTotals) add(r httpd.ApplyResponse) {
	u.NewEdges += r.NewEdges
	u.Merged += r.Merged
	u.DeletedEdges += r.DeletedEdges
	u.Split += r.Split
	if r.Rebuilt {
		u.Rebuilds++
	}
}

// sendOp issues one op on c.
func sendOp(c *conn, o op, upd *updateTotals) error {
	switch o.Kind {
	case "read":
		var r httpd.ConnectedResponse
		return c.do(http.MethodGet, fmt.Sprintf("/v1/connected?u=%d&v=%d", o.U, o.V), -1, nil, &r)
	case "apply":
		var r httpd.ApplyResponse
		err := c.do(http.MethodPost, "/v1/apply", -1, httpd.ApplyRequest{Edges: o.Ins, Deletes: o.Del}, &r)
		if err == nil && upd != nil {
			upd.add(r)
		}
		return err
	default:
		var r json.RawMessage
		return c.do(http.MethodGet, o.Path, -1, nil, &r)
	}
}

// openLoop plays ops against base on two connections, connection 0 carrying
// the reads and connection 1 the rest, starting on an absolute tick.
func openLoop(base string, ops []op) ([]sample, updateTotals) {
	var byConn [2][]op
	for _, o := range ops {
		byConn[o.Conn] = append(byConn[o.Conn], o)
	}
	now := time.Now()
	start := now.Add(2*tick - time.Duration(now.UnixNano())%tick)
	var upd updateTotals
	var res [2][]sample
	var wg sync.WaitGroup
	for i := range byConn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			var u *updateTotals
			if i == 1 {
				u = &upd
			}
			res[i] = pace(realClock{}, start, byConn[i], func(o op) error { return sendOp(c, o, u) })
		}(i)
	}
	wg.Wait()
	return append(res[0], res[1]...), upd
}

// peak runs closed-loop point reads on two connections for the given
// windows and returns each window's completed requests per second. No apply
// runs any more, so every answer is checked against the final labels.
func peak(base string, label []uint32, windows int, window time.Duration, seed uint64) (rps []float64, attempted, failed int) {
	conns := [2]*conn{newConn(base), newConn(base)}
	rngs := [2]*gen.RNG{gen.NewRNG(seed), gen.NewRNG(seed + 1)}
	defer conns[0].close()
	defer conns[1].close()
	n := len(label)
	for w := 0; w < windows; w++ {
		var ok, bad [2]int
		var wg sync.WaitGroup
		start := time.Now()
		end := start.Add(window)
		for i := range conns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for time.Now().Before(end) {
					u, v := rngs[i].Intn(n), rngs[i].Intn(n)
					var r httpd.ConnectedResponse
					err := conns[i].do(http.MethodGet, fmt.Sprintf("/v1/connected?u=%d&v=%d", u, v), -1, nil, &r)
					if err != nil || r.Connected != (label[u] == label[v]) {
						bad[i]++
					} else {
						ok[i]++
					}
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		rps = append(rps, float64(ok[0]+ok[1])/elapsed)
		attempted += ok[0] + ok[1] + bad[0] + bad[1]
		failed += bad[0] + bad[1]
	}
	return rps, attempted, failed
}

// checkFinal pins the final epoch and checks /v1/cc and pairs point reads
// against the oracle labels of the live edge set.
func checkFinal(base string, wantEpoch uint64, label []uint32, comps, pairs int, seed uint64) (attempted, failed int, msgs []string) {
	c := newConn(base)
	defer c.close()
	fail := func(format string, args ...any) {
		failed++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	attempted++
	var ep httpd.EpochResponse
	if err := c.do(http.MethodGet, "/v1/epoch", -1, nil, &ep); err != nil || ep.Epoch != wantEpoch {
		fail("final epoch %d (err %v), want %d", ep.Epoch, err, wantEpoch)
	}
	pin := int64(ep.Epoch)
	attempted++
	var cc httpd.CCResponse
	if err := c.do(http.MethodGet, "/v1/cc", pin, nil, &cc); err != nil || cc.NumComponents != comps {
		fail("/v1/cc at epoch %d: %d components (err %v), oracle %d", pin, cc.NumComponents, err, comps)
	}
	rng := gen.NewRNG(seed)
	n := len(label)
	for i := 0; i < pairs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		attempted++
		var r httpd.ConnectedResponse
		err := c.do(http.MethodGet, fmt.Sprintf("/v1/connected?u=%d&v=%d", u, v), pin, nil, &r)
		if want := label[u] == label[v]; err != nil || r.Connected != want {
			fail("/v1/connected?u=%d&v=%d at epoch %d: %v (err %v), oracle %v", u, v, pin, r.Connected, err, want)
		}
	}
	return attempted, failed, msgs
}

// scrape reads aquilad's /metrics.
func scrape(base string) (httpd.MetricsSnapshot, error) {
	c := newConn(base)
	defer c.close()
	var m httpd.MetricsSnapshot
	err := c.do(http.MethodGet, "/metrics", -1, nil, &m)
	return m, err
}

// handlerMean is the mean handler latency in ms of the given kinds between
// two scrapes, with the request count it averages over.
func handlerMean(before, after httpd.MetricsSnapshot, kinds ...string) (ms float64, count uint64) {
	var sum float64
	for _, k := range kinds {
		count += after.Kinds[k].Count - before.Kinds[k].Count
		sum += after.Kinds[k].SumSeconds - before.Kinds[k].SumSeconds
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count) * 1e3, count
}

// vmKB reads a kB field such as VmHWM from /proc/<pid>/status.
func vmKB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb
		}
	}
	return 0
}

// cpuMillis reads a process's user+system CPU time from /proc/<pid>/stat,
// assuming the Linux default of 100 clock ticks per second.
func cpuMillis(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}
