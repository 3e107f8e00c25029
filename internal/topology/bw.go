package topology

import (
	"fmt"
	"math"
	"strings"
)

// BWConfig is a per-dimension bandwidth allocation in GB/s per NPU,
// innermost dimension first. BWConfig is the decision variable LIBRA
// optimizes: element i is the bandwidth every NPU can drive into network
// dimension i+1.
type BWConfig []float64

// EqualBW splits a total per-NPU bandwidth budget equally across n
// dimensions — the paper's workload-agnostic straw-person baseline.
func EqualBW(total float64, n int) BWConfig {
	bw := make(BWConfig, n)
	for i := range bw {
		bw[i] = total / float64(n)
	}
	return bw
}

// Total returns the aggregate per-NPU bandwidth across all dimensions.
func (b BWConfig) Total() float64 {
	s := 0.0
	for _, v := range b {
		s += v
	}
	return s
}

// Clone returns a copy.
func (b BWConfig) Clone() BWConfig {
	cp := make(BWConfig, len(b))
	copy(cp, b)
	return cp
}

// Validate checks that the allocation matches the network's dimensionality
// and that every dimension has strictly positive, finite bandwidth.
func (b BWConfig) Validate(n *Network) error {
	if len(b) != n.NumDims() {
		return fmt.Errorf("topology: BW config has %d entries for a %dD network", len(b), n.NumDims())
	}
	if i := b.firstInvalid(); i >= 0 {
		return fmt.Errorf("topology: dim %d bandwidth %v must be positive and finite", i+1, b[i])
	}
	return nil
}

// Valid reports whether Validate would accept b on a network of ndims
// dimensions, without building an error: the check a pricing hot path
// runs once per call.
func (b BWConfig) Valid(ndims int) bool {
	return len(b) == ndims && b.firstInvalid() < 0
}

// firstInvalid returns the index of the first entry that is not strictly
// positive and finite, or -1.
func (b BWConfig) firstInvalid() int {
	for i, v := range b {
		if !(v > 0 && v <= math.MaxFloat64) { // NaN fails both comparisons
			return i
		}
	}
	return -1
}

// String renders the allocation like "[30.0 20.0 15.0 35.0] GB/s".
func (b BWConfig) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f", v)
	}
	sb.WriteString("] GB/s")
	return sb.String()
}
