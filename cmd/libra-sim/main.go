// Command libra-sim simulates chunked collectives on multi-dimensional
// networks with the chunk-pipeline simulator, optionally under the Themis
// scheduler or the TACOS synthesizer.
//
// Examples:
//
//	libra-sim -topology "RI(4)_RI(4)_RI(4)" -bw 100,100,100 -op allreduce -bytes 1e9 -chunks 64
//	libra-sim -preset 3D-Torus -bw 333,333,334 -op allreduce -bytes 1e9 -scheduler themis
//	libra-sim -preset 3D-Torus -bw 333,333,334 -bytes 1e9 -scheduler tacos -chunks 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"libra"
	"libra/internal/cliutil"
	"libra/internal/collective"
	"libra/internal/validate"
)

func main() {
	cliutil.Fatal("libra-sim", run(os.Args[1:], os.Stdout))
}

// run executes one simulation request, writing the report to w. It is
// main minus the process plumbing, so the golden-output test drives the
// exact code the binary ships.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("libra-sim", flag.ContinueOnError)
	// Parse failures surface exactly once (via the returned error);
	// -h/-help prints usage to w and succeeds.
	fs.SetOutput(io.Discard)
	var (
		topo      = fs.String("topology", "", "network in block notation")
		preset    = fs.String("preset", "3D-Torus", "named Table III topology")
		bwFlag    = fs.String("bw", "", "per-dimension GB/s, comma-separated (default: EqualBW 300)")
		opFlag    = fs.String("op", "allreduce", "collective: allreduce, reducescatter, allgather, alltoall")
		bytesFlag = fs.Float64("bytes", 1e9, "collective payload in bytes")
		chunks    = fs.Int("chunks", 64, "chunk count")
		scheduler = fs.String("scheduler", "baseline", "baseline, themis, or tacos")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(w)
			fs.Usage()
			return nil
		}
		return err
	}

	// The -preset default stands in for "neither flag given".
	if *topo != "" {
		*preset = ""
	}
	net, err := cliutil.ResolveNetwork(*topo, *preset, "3D-Torus")
	if err != nil {
		return err
	}

	bw := libra.EqualBW(300, net.NumDims())
	if *bwFlag != "" {
		if bw, err = cliutil.ParseBW(*bwFlag, net.NumDims()); err != nil {
			return err
		}
	}

	op, err := collective.ParseOp(*opFlag)
	if err != nil {
		return err
	}
	cc := validate.CollectiveCase{Net: net, Op: op, Bytes: *bytesFlag, BW: bw, Chunks: *chunks}

	fmt.Fprintf(w, "network:  %s (%d NPUs)\n", net.Name(), net.NPUs())
	fmt.Fprintf(w, "bw:       %s\n", bw.String())
	fmt.Fprintf(w, "op:       %v, %.3g bytes, %d chunks, scheduler %s\n\n", op, *bytesFlag, *chunks, *scheduler)

	fmt.Fprintf(w, "analytical bound:   %.6f s\n", cc.Analytical())

	switch strings.ToLower(*scheduler) {
	case "baseline":
		r, err := cc.Pipeline()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "simulated makespan: %.6f s\n", r.Makespan)
		fmt.Fprintf(w, "avg utilization:    %.1f%%\n", 100*r.AvgUtilization())
		for d := 0; d < net.NumDims(); d++ {
			fmt.Fprintf(w, "  dim %d utilization: %.1f%%\n", d+1, 100*r.DimUtilization(d))
		}
	case "themis":
		r, err := cc.Themis()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "themis makespan:    %.6f s\n", r.Makespan)
		fmt.Fprintf(w, "avg utilization:    %.1f%%\n", 100*r.AvgUtilization())
	case "tacos":
		if op != libra.AllReduce && op != libra.AllGather {
			return fmt.Errorf("tacos synthesizes allgather/allreduce only")
		}
		if op == libra.AllGather {
			s, err := libra.TacosAllGather(net, bw, *bytesFlag, *chunks)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "tacos makespan:     %.6f s (%d sends, %.1f%% link util)\n",
				s.Makespan, s.Sends, 100*s.AvgLinkUtilization)
		} else {
			t, s, err := libra.TacosAllReduceTime(net, bw, *bytesFlag, *chunks)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "tacos makespan:     %.6f s (AG phase: %d sends, %.1f%% link util)\n",
				t, s.Sends, 100*s.AvgLinkUtilization)
		}
	default:
		return fmt.Errorf("unknown scheduler %q", *scheduler)
	}
	return nil
}
