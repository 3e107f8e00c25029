package sim

import (
	"context"
	"fmt"
	"math"

	"libra/internal/collective"
	"libra/internal/topology"
)

// Transfer is one point-to-point message of an NPU-level simulation.
// A transfer may start once all Deps have completed; it then occupies the
// source's TX port and the destination's RX port of its dimension
// serially for Bytes / (port bandwidth) seconds.
type Transfer struct {
	Src, Dst int // NPU ids
	Dim      int
	Bytes    float64
	Deps     []int // indices into the transfer list
}

// NetResult is the outcome of an NPU-level simulation.
type NetResult struct {
	Makespan float64
	// DimBusy is the per-dimension total port-busy time averaged over
	// NPUs, comparable to PipelineResult.DimBusy.
	DimBusy []float64
}

// RunTransfers schedules a transfer DAG over the network with per-NPU
// per-dimension serial TX/RX ports at the given port bandwidths (GB/s).
// Scheduling is work-conserving FIFO: among ready transfers, the one that
// can start earliest goes first. The dispatch loop polls ctx before each
// transfer and returns ctx.Err() once it is done.
func RunTransfers(ctx context.Context, net *topology.Network, bw topology.BWConfig, transfers []Transfer) (NetResult, error) {
	if err := bw.Validate(net); err != nil {
		return NetResult{}, err
	}
	p := net.NPUs()
	nd := net.NumDims()
	for i, tr := range transfers {
		if tr.Src < 0 || tr.Src >= p || tr.Dst < 0 || tr.Dst >= p {
			return NetResult{}, fmt.Errorf("sim: transfer %d endpoints (%d→%d) out of range", i, tr.Src, tr.Dst)
		}
		if tr.Dim < 0 || tr.Dim >= nd {
			return NetResult{}, fmt.Errorf("sim: transfer %d dim %d out of range", i, tr.Dim)
		}
		if tr.Bytes < 0 {
			return NetResult{}, fmt.Errorf("sim: transfer %d has negative bytes", i)
		}
		for _, d := range tr.Deps {
			if d < 0 || d >= len(transfers) {
				return NetResult{}, fmt.Errorf("sim: transfer %d has dep %d out of range", i, d)
			}
		}
	}

	res := NetResult{DimBusy: make([]float64, nd)}
	txFree := make([]float64, p*nd)
	rxFree := make([]float64, p*nd)
	done := make([]bool, len(transfers))
	depsLeft := make([]int, len(transfers))
	for i, tr := range transfers {
		depsLeft[i] = len(tr.Deps)
	}
	depReady := make([]float64, len(transfers))
	dependents := make([][]int, len(transfers))
	for i, tr := range transfers {
		for _, d := range tr.Deps {
			dependents[d] = append(dependents[d], i)
		}
	}

	remaining := len(transfers)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return NetResult{}, err
		}
		best, bestStart := -1, math.Inf(1)
		for i := range transfers {
			if done[i] || depsLeft[i] > 0 {
				continue
			}
			tr := &transfers[i]
			start := depReady[i]
			if t := txFree[tr.Src*nd+tr.Dim]; t > start {
				start = t
			}
			if t := rxFree[tr.Dst*nd+tr.Dim]; t > start {
				start = t
			}
			if start < bestStart-1e-18 {
				bestStart, best = start, i
			}
		}
		if best < 0 {
			return NetResult{}, fmt.Errorf("sim: transfer dependency cycle (%d transfers stuck)", remaining)
		}
		tr := &transfers[best]
		dur := tr.Bytes / (bw[tr.Dim] * 1e9)
		end := bestStart + dur
		txFree[tr.Src*nd+tr.Dim] = end
		rxFree[tr.Dst*nd+tr.Dim] = end
		res.DimBusy[tr.Dim] += dur / float64(p)
		done[best] = true
		remaining--
		if end > res.Makespan {
			res.Makespan = end
		}
		for _, dep := range dependents[best] {
			depsLeft[dep]--
			if end > depReady[dep] {
				depReady[dep] = end
			}
		}
	}
	return res, nil
}

// BuildCollectiveTransfers expands a chunked multi-rail collective into an
// NPU-level transfer DAG on the network.
//
// Per chunk, the 2N-stage schedule runs unit collectives dimension by
// dimension. Within a stage, groups execute their dimension's unit
// algorithm; every transfer of stage s+1 originating at NPU v depends on
// all of v's incoming stage-s transfers of the same chunk (the reduction/
// gather must land before the next rail forwards it).
//
// Unit algorithms (equal bandwidth cost to the topology-aware algorithms
// of Fig. 7):
//   - Ring RS/AG: g−1 neighbor rounds of m/g-byte shards with
//     receive-before-forward dependencies.
//   - FullyConnected and Switch RS/AG: direct exchange — each member
//     sends a distinct m/g shard to every peer (a non-blocking switch
//     makes direct exchange contention-free, costing exactly the
//     m(g−1)/g of halving-doubling).
//   - All-to-All: direct exchange of m/g shards, no reduction.
func BuildCollectiveTransfers(net *topology.Network, op collective.Op, m float64, mapping collective.Mapping, chunks int) ([]Transfer, error) {
	if chunks < 1 {
		return nil, fmt.Errorf("sim: chunk count %d must be ≥ 1", chunks)
	}
	if err := mapping.Validate(net.NumDims()); err != nil {
		return nil, err
	}
	for _, ph := range mapping.Phases {
		if ph.Group != net.Dim(ph.Dim).Size {
			return nil, fmt.Errorf("sim: NPU-level simulation needs full-dimension groups (dim %d group %d ≠ size %d)",
				ph.Dim+1, ph.Group, net.Dim(ph.Dim).Size)
		}
	}
	stages := collective.Stages(op, mapping)
	p := net.NPUs()

	var transfers []Transfer
	for c := 0; c < chunks; c++ {
		// inbound[v] lists the previous stage's transfers into NPU v.
		inbound := make([][]int, p)
		for si, st := range stages {
			shard := collective.StageTraffic(op, m/float64(chunks), mapping, st)
			g := groupSizeOf(mapping, st)
			newInbound := make([][]int, p)
			dim := st.Dim
			kind := net.Dim(dim).Kind
			seen := make(map[int]bool)
			for v := 0; v < p; v++ {
				group := net.GroupOf(v, dim)
				if group[0] != v || seen[group[0]] {
					continue
				}
				seen[group[0]] = true
				switch {
				case st.Op != collective.AllToAll && kind == topology.Ring:
					// g−1 rounds around the ring; per-round shard m/(g·(g−1))
					// of the stage bytes... the stage moves (g−1) shards of
					// sz each, where sz·(g−1) = shard total.
					sz := shard / float64(g-1)
					prevRound := make([]int, g) // transfer idx received by member j last round
					for j := range prevRound {
						prevRound[j] = -1
					}
					for r := 0; r < g-1; r++ {
						cur := make([]int, g)
						for j := 0; j < g; j++ {
							src := group[j]
							dst := group[(j+1)%g]
							deps := append([]int{}, inbound[src]...)
							if prevRound[j] >= 0 {
								deps = append(deps, prevRound[j])
							}
							transfers = append(transfers, Transfer{Src: src, Dst: dst, Dim: dim, Bytes: sz, Deps: deps})
							cur[(j+1)%g] = len(transfers) - 1
							newInbound[dst] = append(newInbound[dst], len(transfers)-1)
						}
						prevRound = cur
					}
				default:
					// Direct exchange (FC, Switch, and all All-to-All
					// stages): each member sends g−1 shards of sz, organized
					// as g−1 permutation rounds (round r: j → j+r) chained on
					// the sender's TX port so rounds stay aligned and the
					// exchange is contention-free.
					sz := shard / float64(g-1)
					prevSend := make([]int, g)
					for j := range prevSend {
						prevSend[j] = -1
					}
					for r := 1; r < g; r++ {
						for j := 0; j < g; j++ {
							src, dst := group[j], group[(j+r)%g]
							deps := append([]int{}, inbound[src]...)
							if prevSend[j] >= 0 {
								deps = append(deps, prevSend[j])
							}
							transfers = append(transfers, Transfer{
								Src: src, Dst: dst, Dim: dim, Bytes: sz, Deps: deps,
							})
							prevSend[j] = len(transfers) - 1
							newInbound[dst] = append(newInbound[dst], len(transfers)-1)
						}
					}
				}
				_ = si
			}
			inbound = newInbound
		}
	}
	return transfers, nil
}

func groupSizeOf(mapping collective.Mapping, st collective.Stage) int {
	return mapping.Phases[st.PhaseIndex].Group
}

// SimulateCollectiveNPULevel builds and runs the NPU-level transfer DAG,
// returning the makespan. It is the validation path for the symmetric
// pipeline backend; a done ctx stops the run (see RunTransfers).
func SimulateCollectiveNPULevel(ctx context.Context, net *topology.Network, op collective.Op, m float64, mapping collective.Mapping, bw topology.BWConfig, chunks int) (NetResult, error) {
	transfers, err := BuildCollectiveTransfers(net, op, m, mapping, chunks)
	if err != nil {
		return NetResult{}, err
	}
	return RunTransfers(ctx, net, bw, transfers)
}
