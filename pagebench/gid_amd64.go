package main

// curg returns the address of the calling goroutine's runtime descriptor. It
// identifies the goroutine for as long as the goroutine lives, which is all
// the span recorder needs to nest spans by caller; it is read from the
// thread-local slot the Go runtime keeps it in, so it costs a few
// nanoseconds instead of the microseconds of parsing runtime.Stack.
func curg() uintptr
