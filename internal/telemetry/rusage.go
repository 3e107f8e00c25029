//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package telemetry

import "syscall"

// ProcessCPU is the CPU time the process has used. Platforms without
// getrusage build without this file, so the series is left out there.
var ProcessCPU = Default.NewCounterFunc("libra_process_cpu_seconds_total",
	"User plus system CPU time the process has used, in seconds, from getrusage(RUSAGE_SELF) at microsecond resolution.",
	processCPUSeconds)

// processCPUSeconds returns the process's user + system CPU time.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return seconds(ru.Utime) + seconds(ru.Stime)
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
