//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeProcessCPU reads libra_process_cpu_seconds_total off the default
// registry's exposition.
func scrapeProcessCPU(t *testing.T) float64 {
	t.Helper()
	out := render(Default)
	if !strings.Contains(out, "# TYPE libra_process_cpu_seconds_total counter\n") {
		t.Fatalf("exposition has no libra_process_cpu_seconds_total counter:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "libra_process_cpu_seconds_total "); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return x
		}
	}
	t.Fatal("no libra_process_cpu_seconds_total sample")
	return 0
}

// TestProcessCPURisesAfterBusyLoop checks that the scraped process CPU
// counter grows across 50 ms of spinning.
func TestProcessCPURisesAfterBusyLoop(t *testing.T) {
	before := scrapeProcessCPU(t)
	x := 0.0
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	after := scrapeProcessCPU(t)
	if !(after > before) {
		t.Fatalf("process CPU %v s before a 50 ms busy loop, %v s after (sink %v)", before, after, x)
	}
	t.Logf("process CPU %.6f s → %.6f s", before, after)
}
