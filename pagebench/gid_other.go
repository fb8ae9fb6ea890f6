//go:build !amd64

package main

import (
	"runtime"
	"strconv"
	"strings"
)

// curg identifies the calling goroutine by the id runtime.Stack prints. It
// is the portable, slower fallback for the amd64 thread-local read.
func curg() uintptr {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	n, _ := strconv.ParseUint(s, 10, 64)
	return uintptr(n)
}
