package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance describes the build and the host, so every recorded number
// carries the machine it was measured on.
func provenance() []string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = " (modified)"
			}
		}
	}
	return []string{
		fmt.Sprintf("skipbench rev %s%s, %s %s/%s", rev, modified, runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("GOMAXPROCS %d, nproc %d, cpu %s", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
