//go:build !linux

package main

import (
	"errors"
	"runtime"
	"syscall"
	"time"
)

// errNoProc explains why the served workloads cannot run here: the
// server's CPU time and peak RSS are read from Linux's /proc.
var errNoProc = errors.New("bench: unsupported on " + runtime.GOOS + ": server CPU and RSS are read from /proc/<pid>, which only Linux has")

func childAttr() *syscall.SysProcAttr { return nil }

func procCPU(int) (time.Duration, error) { return 0, errNoProc }

func procPeakRSS(int) (int64, error) { return 0, errNoProc }

func kernelVersion() string { return runtime.GOOS }
