// Package timemodel estimates end-to-end training iteration time as a
// function of the per-dimension network bandwidth vector — the objective
// LIBRA optimizes (paper §IV-C).
//
// Estimator.Compile maps a workload's parallelization groups onto the
// physical network dimensions (tensor parallelism innermost, data
// parallelism outermost, splitting a dimension when the TP degree ends
// inside it), prices every layer's compute and resolves every collective's
// per-dimension traffic under the multi-rail analytical model, once, into
// a Plan. The Plan is the one pricing path: Plan.Time folds it into the
// iteration time the optimizer minimizes, and Plan.Iteration folds the
// same terms in the same order into the full Breakdown that evaluation
// reports, so Time(bw) equals Iteration(bw).Total bit for bit.
package timemodel

import (
	"fmt"

	"libra/internal/collective"
	"libra/internal/topology"
	"libra/internal/workload"
)

// MappingPolicy selects how parallelization groups are projected onto
// network dimensions.
type MappingPolicy int

const (
	// Actual splits dimensions exactly: a TP degree that ends inside a
	// dimension claims only its share, and DP gets the rest. This is how
	// the traffic really flows.
	Actual MappingPolicy = iota
	// IdealFullDims rounds the TP group up to whole dimensions — the
	// simplification the paper's optimizer makes, which causes the GPT-3 +
	// 4D-4K anomaly (LIBRA assigns Dim-2 bandwidth the real TP-16 traffic
	// cannot use, §VI-A). Use for optimization-side modeling only.
	IdealFullDims
)

// Mappings holds the per-scope collective mappings of one workload on one
// network.
type Mappings struct {
	TP  collective.Mapping
	PP  collective.Mapping
	DP  collective.Mapping
	All collective.Mapping
}

// ForScope returns the mapping for a communication scope.
func (m Mappings) ForScope(s workload.Scope) collective.Mapping {
	switch s {
	case workload.TPScope:
		return m.TP
	case workload.PPScope:
		return m.PP
	case workload.DPScope:
		return m.DP
	default:
		return m.All
	}
}

// dimCursor walks the network's dimensions innermost-first, handing out
// group factors to successive parallelization degrees and splitting a
// dimension when a degree ends inside it.
type dimCursor struct {
	sizes []int
	d     int // current dimension
	left  int // remaining size within the current dimension
}

// take carves a degree out of the remaining dimensions (Actual policy).
func (c *dimCursor) take(degree int, label string) ([]collective.Phase, error) {
	var phases []collective.Phase
	remaining := degree
	for remaining > 1 {
		if c.d >= len(c.sizes) {
			return nil, fmt.Errorf("timemodel: %s=%d exceeds the network", label, degree)
		}
		if c.left == 0 {
			c.left = c.sizes[c.d]
		}
		if remaining >= c.left {
			if remaining%c.left != 0 {
				return nil, fmt.Errorf("timemodel: %s=%d does not divide evenly across dim %d (residue %d over %d)",
					label, degree, c.d+1, remaining, c.left)
			}
			phases = append(phases, collective.Phase{Dim: c.d, Group: c.left})
			remaining /= c.left
			c.left = 0
			c.d++
			continue
		}
		if c.left%remaining != 0 {
			return nil, fmt.Errorf("timemodel: %s=%d leaves residue %d that does not divide dim %d's remaining %d",
				label, degree, remaining, c.d+1, c.left)
		}
		phases = append(phases, collective.Phase{Dim: c.d, Group: remaining})
		c.left /= remaining
		if c.left == 1 {
			c.left = 0
			c.d++
		}
		remaining = 1
	}
	return phases, nil
}

// takeIdeal rounds the degree up to whole dimensions (IdealFullDims).
func (c *dimCursor) takeIdeal(degree int) []collective.Phase {
	var phases []collective.Phase
	covered := 1
	for c.d < len(c.sizes) && covered < degree {
		phases = append(phases, collective.Phase{Dim: c.d, Group: c.sizes[c.d]})
		covered *= c.sizes[c.d]
		c.d++
	}
	return phases
}

// MapStrategy projects an HP-(TP[, PP], DP) strategy onto the network:
// TP occupies dimensions innermost-first, then PP, then DP outward. The
// strategy must occupy exactly the network's NPU count, and under the
// Actual policy every boundary must divide evenly (e.g. TP=24 cannot map
// onto RI(4)_FC(8): 24/4 = 6 does not divide 8).
func MapStrategy(net *topology.Network, s workload.Strategy, policy MappingPolicy) (Mappings, error) {
	if err := s.Validate(); err != nil {
		return Mappings{}, err
	}
	if s.NPUs() != net.NPUs() {
		return Mappings{}, fmt.Errorf("timemodel: strategy %v occupies %d NPUs but network %s has %d",
			s, s.NPUs(), net.Name(), net.NPUs())
	}
	cur := &dimCursor{sizes: net.Sizes()}

	var tp, pp, dp []collective.Phase
	var err error
	switch policy {
	case Actual:
		if tp, err = cur.take(s.TP, "TP"); err != nil {
			return Mappings{}, err
		}
		if pp, err = cur.take(s.PPOr1(), "PP"); err != nil {
			return Mappings{}, err
		}
		if dp, err = cur.take(s.DP, "DP"); err != nil {
			return Mappings{}, err
		}
	case IdealFullDims:
		tp = cur.takeIdeal(s.TP)
		pp = cur.takeIdeal(s.PPOr1())
		dp = cur.takeIdeal(s.DP)
	default:
		return Mappings{}, fmt.Errorf("timemodel: unknown mapping policy %d", policy)
	}

	m := Mappings{
		TP:  collective.Mapping{Phases: tp},
		PP:  collective.Mapping{Phases: pp},
		DP:  collective.Mapping{Phases: dp},
		All: collective.FullMapping(net),
	}
	for _, mm := range []collective.Mapping{m.TP, m.PP, m.DP, m.All} {
		if err := mm.Validate(net.NumDims()); err != nil {
			return Mappings{}, err
		}
	}
	return m, nil
}
