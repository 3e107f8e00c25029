package timemodel

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"libra/internal/compute"
	"libra/internal/topology"
	"libra/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/breakdown.golden")

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmtFloat(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestBreakdownGolden pins the analytical breakdown bit for bit: Total,
// CollectiveTime and DimBusy from Estimator.Iteration over the Table II
// presets × the preset topologies × both loops × both mapping policies ×
// no offload or last-dimension offload, at four seeded bandwidth vectors
// per combination, every float at full (round-trip) precision and every
// error string verbatim. Regenerate only for an intentional model change:
//
//	go test ./internal/timemodel -run TestBreakdownGolden -update
func TestBreakdownGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds and move low bits", runtime.GOARCH)
	}
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(27))
	for _, tn := range append(topology.PresetNames(), topology.Name2D4K) {
		net, err := topology.Preset(tn)
		if err != nil {
			t.Fatal(err)
		}
		ndims := net.NumDims()
		lastDim := make([]bool, ndims)
		lastDim[ndims-1] = true
		for _, wn := range workload.PresetNames() {
			w, err := workload.Preset(wn, net.NPUs())
			if err != nil {
				fmt.Fprintf(&buf, "%s %s: workload: %v\n", tn, wn, err)
				continue
			}
			for _, loop := range []Loop{NoOverlap, TPDPOverlap} {
				for _, policy := range []MappingPolicy{Actual, IdealFullDims} {
					for _, offload := range [][]bool{nil, lastDim} {
						e := &Estimator{Net: net, Compute: compute.A100(), Loop: loop, Policy: policy, InNetwork: offload}
						for k := 0; k < 4; k++ {
							bw := make(topology.BWConfig, ndims)
							for d := range bw {
								bw[d] = math.Pow(10, -1+4*rng.Float64())
							}
							fmt.Fprintf(&buf, "%s %s %v policy=%d offload=%t bw=%s:", tn, wn, loop, policy, offload != nil, fmtFloats(bw))
							b, err := e.Iteration(w, bw)
							if err != nil {
								fmt.Fprintf(&buf, " error: %v\n", err)
								break // the strategy does not map; one line says so
							}
							fmt.Fprintf(&buf, " total=%s coll=%s util=%s busy=%s\n",
								fmtFloat(b.Total), fmtFloat(b.CollectiveTime), fmtFloat(b.AvgUtilization()), fmtFloats(b.DimBusy))
						}
					}
				}
			}
		}
	}
	// Invalid inputs: the estimator's errors, in its own words.
	net := topology.FourD4K()
	w, err := workload.GPT3(net.NPUs())
	if err != nil {
		t.Fatal(err)
	}
	badStrategy := *w
	badStrategy.Strategy.TP *= 3
	noLayers := *w
	noLayers.Layers = nil
	errCases := []struct {
		name string
		w    *workload.Workload
		bw   topology.BWConfig
	}{
		{"short-bw", w, topology.BWConfig{100, 200, 300}},
		{"zero-bw", w, topology.BWConfig{100, 0, 300, 400}},
		{"nan-bw", w, topology.BWConfig{100, math.NaN(), 300, 400}},
		{"bad-strategy", &badStrategy, topology.BWConfig{100, 200, 300, 400}},
		{"bad-strategy-zero-bw", &badStrategy, topology.BWConfig{100, 0, 300, 400}},
		{"no-layers", &noLayers, topology.BWConfig{100, 200, 300, 400}},
	}
	for _, c := range errCases {
		e := &Estimator{Net: net, Compute: compute.A100(), Loop: NoOverlap, Policy: Actual}
		_, err := e.Iteration(c.w, c.bw)
		fmt.Fprintf(&buf, "%s: error: %v\n", c.name, err)
	}

	golden := filepath.Join("testdata", "breakdown.golden")
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
		t.Errorf("analytical breakdowns moved:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}
