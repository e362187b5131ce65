package graph

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// releasePages drops the process's pages of b, a page-aligned range of a
// read-only shared file mapping, with madvise(MADV_DONTNEED). The file's
// pages stay in the page cache, and a later read faults them back in with
// the same contents. The release is advisory: an error leaves the pages
// resident and changes nothing else.
func releasePages(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }

// mappingRSS reads the resident size of the mapping that starts at b's first
// byte from /proc/self/smaps.
func mappingRSS(b []byte) (int64, bool) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	head := strconv.FormatUint(uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b)))), 16) + "-"
	found := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if !found {
			found = strings.HasPrefix(line, head)
			continue
		}
		if kb, ok := strings.CutPrefix(line, "Rss:"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return v << 10, err == nil
		}
	}
	return 0, false
}
