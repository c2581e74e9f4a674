package main

import (
	"os/exec"
	"syscall"
	"time"
	"unsafe"
)

// setParentDeathSignal kills a daemon if the benchmark itself dies
// without running its clean-up.
func setParentDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}
