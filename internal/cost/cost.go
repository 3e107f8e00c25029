// Package cost implements LIBRA's network dollar-cost model (paper §IV-D,
// Table I, Fig. 12).
//
// The model prices each network component in $/GBps. For a dimension of a
// P-NPU network carrying per-NPU bandwidth B (GB/s):
//
//   - Links: every NPU drives B GB/s of link capacity into the dimension,
//     so link cost = linkRate · B · P. (This holds for Ring, FullyConnected
//     and Switch alike: an FC(g) NPU splits B across g−1 links but pays for
//     the same aggregate capacity.)
//   - Switches (Switch dimensions only, never at the Chiplet tier): each
//     group's switch has radix g at B GB/s per port and there are P/g
//     groups, so switch cost = switchRate · g · B · (P/g) = switchRate · B · P.
//   - NICs (Pod tier only — the scale-out tier): nicRate · B · P.
//
// Total network cost is therefore linear in the bandwidth vector:
// C(B) = Σ_d rate_d · B_d with rate_d = P · (link_d [+ switch_d] [+ nic_d]),
// which is what lets cost appear in LIBRA's linear constraints.
package cost

import (
	"fmt"

	"libra/internal/topology"
)

// Component prices one tier's parts in $/GBps. A zero field means the part
// is not used at that tier.
type Component struct {
	LinkPerGBps   float64
	SwitchPerGBps float64
	NICPerGBps    float64
}

// Table is a per-tier cost model. It is a user input to LIBRA; Default
// reproduces Table I's lowest-value entries.
type Table struct {
	Name  string
	Tiers map[topology.Tier]Component
}

// Default returns the paper's Table I using the lowest value of each range
// (the paper's choice for evaluation):
//
//	($/GBps)        Link   Switch   NIC
//	Inter-Chiplet   2.0    —        —
//	Inter-Package   4.0    13.0     —
//	Inter-Node      4.0    13.0     —
//	Inter-Pod       7.8    18.0     31.6
func Default() Table {
	return Table{
		Name: "TableI-lowest",
		Tiers: map[topology.Tier]Component{
			topology.Chiplet: {LinkPerGBps: 2.0},
			topology.Package: {LinkPerGBps: 4.0, SwitchPerGBps: 13.0},
			topology.Node:    {LinkPerGBps: 4.0, SwitchPerGBps: 13.0},
			topology.Pod:     {LinkPerGBps: 7.8, SwitchPerGBps: 18.0, NICPerGBps: 31.6},
		},
	}
}

// Equal reports whether two tables have the same name and the same rates
// for the same tiers. It allocates nothing, unlike reflect.DeepEqual over
// the tier map, which matters on the fingerprint path.
func (t Table) Equal(u Table) bool {
	if t.Name != u.Name || len(t.Tiers) != len(u.Tiers) {
		return false
	}
	for tier, c := range t.Tiers {
		if d, ok := u.Tiers[tier]; !ok || c != d {
			return false
		}
	}
	return true
}

// WithPackageLink returns a copy of the table with the inter-Package link
// price replaced — the knob swept in the Fig. 18 sensitivity study.
func (t Table) WithPackageLink(dollarsPerGBps float64) Table {
	cp := Table{Name: fmt.Sprintf("%s-pkgLink%.1f", t.Name, dollarsPerGBps), Tiers: map[topology.Tier]Component{}}
	for tier, c := range t.Tiers {
		cp.Tiers[tier] = c
	}
	c := cp.Tiers[topology.Package]
	c.LinkPerGBps = dollarsPerGBps
	cp.Tiers[topology.Package] = c
	return cp
}

// Validate checks that every tier present has non-negative rates.
func (t Table) Validate() error {
	if len(t.Tiers) == 0 {
		return fmt.Errorf("cost: empty cost table")
	}
	for tier, c := range t.Tiers {
		if c.LinkPerGBps < 0 || c.SwitchPerGBps < 0 || c.NICPerGBps < 0 {
			return fmt.Errorf("cost: tier %v has negative rate", tier)
		}
	}
	return nil
}

// DimRate returns the marginal cost in dollars per (GB/s of per-NPU
// bandwidth) of network dimension d — the coefficient of B_d in the linear
// cost function. Chiplet dimensions never pay for switches (chiplets are
// wired peer-to-peer); only the Pod tier pays for NICs.
func DimRate(table Table, net *topology.Network, d int) (float64, error) {
	dim := net.Dim(d)
	c, ok := table.Tiers[dim.Tier]
	if !ok {
		return 0, fmt.Errorf("cost: table %q has no entry for tier %v (dim %d)", table.Name, dim.Tier, d+1)
	}
	p := float64(net.NPUs())
	rate := c.LinkPerGBps
	if dim.Kind == topology.Switch && dim.Tier != topology.Chiplet {
		rate += c.SwitchPerGBps
	}
	if dim.Tier == topology.Pod {
		rate += c.NICPerGBps
	}
	return rate * p, nil
}

// Rates returns the per-dimension marginal cost vector for the network.
func Rates(table Table, net *topology.Network) ([]float64, error) {
	out := make([]float64, net.NumDims())
	for d := range out {
		r, err := DimRate(table, net, d)
		if err != nil {
			return nil, err
		}
		out[d] = r
	}
	return out, nil
}

// Network returns the total dollar cost of the network under the given
// per-NPU bandwidth allocation: Σ_d rate_d · B_d.
func Network(table Table, net *topology.Network, bw topology.BWConfig) (float64, error) {
	if err := bw.Validate(net); err != nil {
		return 0, err
	}
	rates, err := Rates(table, net)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for d, r := range rates {
		total += r * bw[d]
	}
	return total, nil
}

// Breakdown itemizes one dimension's cost.
type Breakdown struct {
	Dim    int
	Tier   topology.Tier
	Link   float64
	Switch float64
	NIC    float64
}

// Total returns the dimension's summed cost.
func (b Breakdown) Total() float64 { return b.Link + b.Switch + b.NIC }

// Itemize returns a per-dimension component cost breakdown (the Fig. 12
// style accounting).
func Itemize(table Table, net *topology.Network, bw topology.BWConfig) ([]Breakdown, error) {
	if err := bw.Validate(net); err != nil {
		return nil, err
	}
	out := make([]Breakdown, net.NumDims())
	p := float64(net.NPUs())
	for d, dim := range net.Dims() {
		c, ok := table.Tiers[dim.Tier]
		if !ok {
			return nil, fmt.Errorf("cost: table %q has no entry for tier %v (dim %d)", table.Name, dim.Tier, d+1)
		}
		b := Breakdown{Dim: d, Tier: dim.Tier}
		b.Link = c.LinkPerGBps * bw[d] * p
		if dim.Kind == topology.Switch && dim.Tier != topology.Chiplet {
			b.Switch = c.SwitchPerGBps * bw[d] * p
		}
		if dim.Tier == topology.Pod {
			b.NIC = c.NICPerGBps * bw[d] * p
		}
		out[d] = b
	}
	return out, nil
}
