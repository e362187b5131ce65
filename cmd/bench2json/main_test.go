package main

import (
	"runtime"
	"strings"
	"testing"
)

// TestConvertStampsHost: the snapshot carries the goos/goarch/cpu header
// lines, the stripped GOMAXPROCS suffix and the Go version, next to the
// parsed results.
func TestConvertStampsHost(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: aquila
cpu: Intel(R) Xeon(R) Processor
BenchmarkDynamicApply/Promote-2   	       3	  71005969 ns/op	        84.82 B/edge	10432602 B/op	     109 allocs/op	        12.00 resident-KiB
PASS
ok  	aquila	4.034s
`
	snap, err := convert(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2, Go: runtime.Version()}
	if snap.Host != want {
		t.Fatalf("host = %+v, want %+v", snap.Host, want)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("%d results, want 1", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != "BenchmarkDynamicApply/Promote" || r.Iterations != 3 || r.NsPerOp != 71005969 ||
		*r.BytesPerOp != 10432602 || *r.AllocsPerOp != 109 || r.Extra["B/edge"] != 84.82 ||
		r.Extra["resident-KiB"] != 12 {
		t.Fatalf("result = %+v", r)
	}
}
