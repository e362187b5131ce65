//go:build !linux

package graph

// releasePages keeps the pages resident: the standard library offers
// madvise on Linux only, so other hosts keep a loaded container's pages for
// as long as it is mapped.
func releasePages([]byte) {}

// mappingRSS is not reported on this host.
func mappingRSS([]byte) (int64, bool) { return 0, false }
