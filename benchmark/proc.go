package main

import "syscall"

// The benchmark is Linux-only: it kills orphaned children with a
// parent-death signal, and reads peak RSS in getrusage's Linux unit.

// childAttr kills a child replay if the parent process dies first, so
// an interrupted run leaves no simulator behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSBytes is this process's peak resident set so far.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
