//go:build !linux

package main

import "time"

// preciseSleeps has no portable equivalent off Linux.
func preciseSleeps() {}

// nanosleep falls back to the Go timer off Linux.
func nanosleep(d time.Duration) { time.Sleep(d) }
