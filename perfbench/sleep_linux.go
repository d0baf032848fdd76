package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerslack = 29

// preciseSleeps asks the kernel for 1ns timer slack on the calling
// thread (the default is 50µs); the caller locks its OS thread first.
// Best effort: without it sleeps are only less precise.
func preciseSleeps() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// nanosleep blocks the calling thread for d in the kernel. The Go
// timer behind time.Sleep wakes up to a millisecond late on this kind
// of host, which would show up as generator lag; a spinning wait
// would starve the network poller the clients depend on.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}
