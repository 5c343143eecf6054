package main

import (
	"fmt"
	"runtime"
)

// environment describes the machine a result was measured on: CPUs,
// Go version, CPU model and the filesystem under the WAL directory.
func environment(o options) string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q wal_fs=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsName(o.outDir), runtime.GOOS, runtime.GOARCH)
}
