package themis

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"libra/internal/compute"
	"libra/internal/sim"
	"libra/internal/timemodel"
	"libra/internal/topology"
	"libra/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/iterate.golden")

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestIterationGolden pins both simulated training iterations bit for bit:
// sim.SimulateIteration and SimulateIteration over the Table II presets ×
// the Table III topologies × both loops × chunk counts {0, 1, 8}, every
// float at full (round-trip) precision and every error string verbatim.
// Regenerate only for an intentional simulator change:
//
//	go test ./internal/themis -run TestIterationGolden -update
func TestIterationGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds and move low bits", runtime.GOARCH)
	}
	sims := []struct {
		name string
		run  func(sim.TrainingConfig, *workload.Workload, topology.BWConfig) (sim.TrainingResult, error)
	}{
		{"sim", sim.SimulateIteration},
		{"themis", SimulateIteration},
	}
	var buf bytes.Buffer
	for _, tn := range topology.PresetNames() {
		net, err := topology.Preset(tn)
		if err != nil {
			t.Fatal(err)
		}
		// A skewed allocation, so the Themis scheduler has imbalance to
		// work on: dimension d gets 100·(d+1) GB/s.
		bw := make(topology.BWConfig, net.NumDims())
		for d := range bw {
			bw[d] = 100 * float64(d+1)
		}
		for _, wn := range workload.PresetNames() {
			w, err := workload.Preset(wn, net.NPUs())
			if err != nil {
				fmt.Fprintf(&buf, "%s %s: workload: %v\n", tn, wn, err)
				continue
			}
			for _, loop := range []timemodel.Loop{timemodel.NoOverlap, timemodel.TPDPOverlap} {
				for _, chunks := range []int{0, 1, 8} {
					cfg := sim.TrainingConfig{Net: net, Compute: compute.A100(), Loop: loop, Chunks: chunks}
					for _, s := range sims {
						fmt.Fprintf(&buf, "%s %s %v chunks=%d %s:", tn, wn, loop, chunks, s.name)
						r, err := s.run(cfg, w, bw)
						if err != nil {
							fmt.Fprintf(&buf, " error: %v\n", err)
							continue
						}
						fmt.Fprintf(&buf, " total=%s comm=%s compute=%s util=%s busy=%s\n",
							strconv.FormatFloat(r.Total, 'g', -1, 64),
							strconv.FormatFloat(r.CommTime, 'g', -1, 64),
							strconv.FormatFloat(r.ComputeOnly, 'g', -1, 64),
							strconv.FormatFloat(r.Utilization, 'g', -1, 64),
							fmtFloats(r.DimBusy))
					}
				}
			}
		}
	}
	// Invalid inputs: each simulator's error, in its own words.
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	badStrategy := *w
	badStrategy.Strategy.TP *= 3
	errCases := []struct {
		name   string
		chunks int
		w      *workload.Workload
		bw     topology.BWConfig
	}{
		{"negative-chunks", -1, w, topology.BWConfig{100, 200, 300, 400}},
		{"negative-chunks-zero-bw", -1, w, topology.BWConfig{100, 0, 300, 400}},
		{"short-bw", 8, w, topology.BWConfig{100, 200, 300}},
		{"zero-bw", 8, w, topology.BWConfig{100, 0, 300, 400}},
		{"bad-strategy", 8, &badStrategy, topology.BWConfig{100, 200, 300, 400}},
	}
	for _, c := range errCases {
		cfg := sim.TrainingConfig{Net: net, Compute: compute.A100(), Chunks: c.chunks}
		for _, s := range sims {
			_, err := s.run(cfg, c.w, c.bw)
			fmt.Fprintf(&buf, "%s %s: error: %v\n", c.name, s.name, err)
		}
	}

	golden := filepath.Join("testdata", "iterate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("simulated iterations moved:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}
