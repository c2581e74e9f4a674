//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// setParentDeathSignal is a no-op where the kernel offers no parent
// death signal; the normal exit paths still stop every daemon.
func setParentDeathSignal(cmd *exec.Cmd) {}

var start = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is
// read, which counts preemption as a slow host.
func threadCPU() time.Duration { return time.Since(start) }
