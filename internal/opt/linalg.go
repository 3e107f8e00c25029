// Package opt is LIBRA's constrained-optimization substrate, standing in
// for the commercial QP solver the paper uses (Gurobi [59]).
//
// The package solves the two LIBRA objectives over the per-dimension
// bandwidth vector subject to linear constraints:
//
//   - PerfOptBW minimizes training time, which the analytical model makes
//     convex in B (sums of max_d(v_d/B_d) terms over B_d > 0). Projected
//     gradient descent with exact polyhedron projection converges to the
//     global optimum.
//   - PerfPerCostOptBW minimizes time × cost, nonconvex and kinked
//     wherever a collective's slowest dimension changes; deterministic
//     multistart (pairwise-transfer coordinate descent + penalized
//     Nelder-Mead) recovers the global optimum at LIBRA's dimensionality
//     (N ≤ 8).
//
// Projections onto the constraint polyhedron use a primal active-set
// convex QP solver with a Dykstra alternating-projection fallback. The
// solver projects through a projector that holds the materialized
// constraint rows and all projection scratch and resets it on every call:
// a sequential solve uses one for its seeds and every start, and each
// parallel worker owns one, so reuse never changes a result bit.
package opt

import "math"

// dot returns aᵀb.
//
//libra:hotpath
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// norm2 returns ‖a‖₂.
//
//libra:hotpath
func norm2(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

// axpy computes y += alpha·x in place.
//
//libra:hotpath
func axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// scale returns alpha·x as a new slice.
func scale(alpha float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = alpha * x[i]
	}
	return out
}

// clone copies a vector.
func clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}
