//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it has been 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// childAttr has the kernel kill the child server if the benchmark
// dies without running its cleanups.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted from the
	// closing parenthesis, where field 3 (state) begins.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns the process's resident-set high-water mark in
// bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// kernelVersion names the running kernel for the env block.
func kernelVersion() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
