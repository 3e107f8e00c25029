package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"libra/internal/collective"
	"libra/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden")

// traceEvents returns the stage events Trace visits in one chunk-pipeline
// run, in visit order, and checks that the visitor leaves the result as
// SimulateCollective reports it.
func traceEvents(t *testing.T, op collective.Op, m float64, mp collective.Mapping, bw topology.BWConfig, chunks int) []StageEvent {
	t.Helper()
	var events []StageEvent
	r, err := Trace(op, m, mp, bw, chunks, func(ev StageEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SimulateCollective(op, m, mp, bw, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, plain) {
		t.Fatalf("Trace result %+v differs from SimulateCollective %+v", r, plain)
	}
	return events
}

func fullMapping(groups ...int) collective.Mapping {
	var mp collective.Mapping
	for d, g := range groups {
		mp.Phases = append(mp.Phases, collective.Phase{Dim: d, Group: g})
	}
	return mp
}

// TestTraceGolden pins the chunk-pipeline's stage events bit for bit:
// RS/AG/AR/A2A over a 2D, a 3D (equal groups and bandwidths, so start
// times tie) and a 4D mapping, at 1, 4 and 64 chunks. The golden lists
// each run's events sorted by (start, chunk), the order of the sorted
// timeline it was recorded from. Trace visits events in dispatch order,
// which is that order except where two starts on different dimensions lie
// within the dispatcher's 1e-18 s tie slack (rounding-level differences
// that the 4D runs here do hit); the test checks that no visited event
// starts more than the slack before an earlier one. Regenerate only for
// an intentional simulator change:
//
//	go test ./internal/sim -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds and move low bits", runtime.GOARCH)
	}
	mappings := []struct {
		name string
		mp   collective.Mapping
		bw   topology.BWConfig
	}{
		{"2D", fullMapping(4, 2), topology.BWConfig{50, 20}},
		{"3D", fullMapping(4, 4, 4), topology.BWConfig{100, 100, 100}},
		{"4D", fullMapping(2, 8, 4, 16), topology.BWConfig{400, 200, 50, 25}},
	}
	ops := []collective.Op{collective.ReduceScatter, collective.AllGather, collective.AllReduce, collective.AllToAll}
	ff := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var buf bytes.Buffer
	for _, c := range mappings {
		for _, op := range ops {
			for _, chunks := range []int{1, 4, 64} {
				fmt.Fprintf(&buf, "%s %s chunks=%d\n", c.name, op.Key(), chunks)
				events := traceEvents(t, op, 1e8, c.mp, c.bw, chunks)
				latest := 0.0
				for i, ev := range events {
					if ev.Start < latest-1e-18 {
						t.Errorf("%s %s chunks=%d: event %d starts at %v, more than the 1e-18 tie slack before an earlier event's %v",
							c.name, op.Key(), chunks, i, ev.Start, latest)
					}
					latest = math.Max(latest, ev.Start)
				}
				sorted := append([]StageEvent(nil), events...)
				sort.SliceStable(sorted, func(i, j int) bool {
					if sorted[i].Start != sorted[j].Start {
						return sorted[i].Start < sorted[j].Start
					}
					return sorted[i].Chunk < sorted[j].Chunk
				})
				for _, ev := range sorted {
					fmt.Fprintf(&buf, "  %d %d %s %s %s\n", ev.Chunk, ev.Dim, ev.Op.Key(), ff(ev.Start), ff(ev.End))
				}
			}
		}
	}
	const golden = "testdata/trace.golden"
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
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("trace drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("trace drifted from %s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}
