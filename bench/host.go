package main

import (
	"runtime"
	"sync"
	"time"
)

// calibArena is the probe's working set per thread: 8 MiB, past the private
// L2 and well inside L3, like the graph kernels' random accesses.
const calibArena = 1 << 20

var calibSink uint64

// calibrate times a fixed amount of random-access work run on every
// hardware thread at once and returns the slowest thread's time. It does
// not touch the program under test; it shows how fast the host itself was
// while a run measured, so runs on a busy shared host can be told apart.
func calibrate() time.Duration {
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var slowest time.Duration
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			buf := make([]uint64, calibArena)
			for j := range buf {
				buf[j] = uint64(j)
			}
			start := time.Now()
			x := seed | 1
			for r := 0; r < 4*calibArena; r++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[x&(calibArena-1)] += x
			}
			d := time.Since(start)
			mu.Lock()
			slowest = max(slowest, d)
			calibSink += buf[0]
			mu.Unlock()
		}(uint64(i) + 1)
	}
	wg.Wait()
	return slowest
}
