package opt

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Constraints is a set of linear constraints over an n-vector x:
// inequality rows a·x ≤ b, equality rows e·x = d, and box bounds
// lo ≤ x ≤ hi. The zero bound defaults are (−∞, +∞).
type Constraints struct {
	n      int
	ineqA  [][]float64
	ineqB  []float64
	eqA    [][]float64
	eqB    []float64
	lo, hi []float64
	// rowsCache memoizes rows(): the projection inner loops call it once
	// per projection, and a solve performs thousands of projections over
	// an immutable constraint set. Mutators invalidate. Atomic so
	// concurrent multistart goroutines can race the first build benignly
	// (both build identical values).
	rowsCache atomic.Pointer[[]row]
}

// NewConstraints creates an empty constraint set over n variables.
func NewConstraints(n int) *Constraints {
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	return &Constraints{n: n, lo: lo, hi: hi}
}

// N returns the variable count.
func (c *Constraints) N() int { return c.n }

func (c *Constraints) checkCoef(coef []float64) {
	if len(coef) != c.n {
		panic(fmt.Sprintf("opt: constraint has %d coefficients for %d variables", len(coef), c.n))
	}
}

// AddLE appends coef·x ≤ rhs.
func (c *Constraints) AddLE(coef []float64, rhs float64) *Constraints {
	c.checkCoef(coef)
	c.rowsCache.Store(nil)
	c.ineqA = append(c.ineqA, clone(coef))
	c.ineqB = append(c.ineqB, rhs)
	return c
}

// AddGE appends coef·x ≥ rhs (stored as −coef·x ≤ −rhs).
func (c *Constraints) AddGE(coef []float64, rhs float64) *Constraints {
	c.checkCoef(coef)
	return c.AddLE(scale(-1, coef), -rhs)
}

// AddEQ appends coef·x = rhs.
func (c *Constraints) AddEQ(coef []float64, rhs float64) *Constraints {
	c.checkCoef(coef)
	c.rowsCache.Store(nil)
	c.eqA = append(c.eqA, clone(coef))
	c.eqB = append(c.eqB, rhs)
	return c
}

// SetLower sets a lower bound on variable i (keeps the tighter bound).
func (c *Constraints) SetLower(i int, v float64) *Constraints {
	if v > c.lo[i] {
		c.rowsCache.Store(nil)
		c.lo[i] = v
	}
	return c
}

// SetUpper sets an upper bound on variable i (keeps the tighter bound).
func (c *Constraints) SetUpper(i int, v float64) *Constraints {
	if v < c.hi[i] {
		c.rowsCache.Store(nil)
		c.hi[i] = v
	}
	return c
}

// SetAllLower lower-bounds every variable by v.
func (c *Constraints) SetAllLower(v float64) *Constraints {
	for i := 0; i < c.n; i++ {
		c.SetLower(i, v)
	}
	return c
}

// Lower returns variable i's lower bound.
func (c *Constraints) Lower(i int) float64 { return c.lo[i] }

// Upper returns variable i's upper bound.
func (c *Constraints) Upper(i int) float64 { return c.hi[i] }

// Violation returns the total constraint violation at x: the sum of
// inequality excesses, equality residuals, and bound breaches. Zero means
// feasible.
func (c *Constraints) Violation(x []float64) float64 {
	v := 0.0
	for i, a := range c.ineqA {
		if ex := dot(a, x) - c.ineqB[i]; ex > 0 {
			v += ex
		}
	}
	for i, e := range c.eqA {
		v += math.Abs(dot(e, x) - c.eqB[i])
	}
	for i := range x {
		if x[i] < c.lo[i] {
			v += c.lo[i] - x[i]
		}
		if x[i] > c.hi[i] {
			v += x[i] - c.hi[i]
		}
	}
	return v
}

// Feasible reports whether x satisfies every constraint within tol.
func (c *Constraints) Feasible(x []float64, tol float64) bool {
	return c.Violation(x) <= tol
}

// rows materializes all constraints as generic halfspaces/hyperplanes for
// the projection routines: inequalities (a, b, false) and equalities
// (e, d, true), with finite bounds appended as single-variable rows.
type row struct {
	a  []float64
	b  float64
	eq bool
	// unit ≥ 0 marks a bound row: a is sign·e_unit, so dot costs O(1).
	// General rows carry unit = −1.
	unit int
	sign float64
	// den is a·a, the halfspace projection's denominator.
	den float64
}

func newRow(a []float64, b float64, eq bool) row {
	return row{a: a, b: b, eq: eq, unit: -1, den: dot(a, a)}
}

func boundRow(n, i int, sign, b float64) row {
	a := make([]float64, n)
	a[i] = sign
	return row{a: a, b: b, unit: i, sign: sign, den: dot(a, a)}
}

// dot returns r.a·x. On a bound row it reads the one nonzero coefficient:
// the dense sum adds only ±0 terms besides sign·x[unit], so 0.0 +
// sign·x[unit] is the same value bit for bit whenever x is finite (the
// leading 0.0 turns a −0 product into the +0 the dense sum yields).
//
//libra:hotpath
func (r *row) dot(x []float64) float64 {
	if r.unit >= 0 {
		return 0.0 + r.sign*x[r.unit]
	}
	return dot(r.a, x)
}

func (c *Constraints) rows() []row {
	if cached := c.rowsCache.Load(); cached != nil {
		return *cached
	}
	out := make([]row, 0, len(c.ineqA)+len(c.eqA)+2*c.n)
	for i, a := range c.ineqA {
		out = append(out, newRow(a, c.ineqB[i], false))
	}
	for i := range c.lo {
		if !math.IsInf(c.lo[i], -1) {
			out = append(out, boundRow(c.n, i, -1, -c.lo[i]))
		}
		if !math.IsInf(c.hi[i], 1) {
			out = append(out, boundRow(c.n, i, 1, c.hi[i]))
		}
	}
	for i, e := range c.eqA {
		out = append(out, newRow(e, c.eqB[i], true))
	}
	c.rowsCache.Store(&out)
	return out
}

// Clone deep-copies the constraint set.
func (c *Constraints) Clone() *Constraints {
	out := NewConstraints(c.n)
	for i, a := range c.ineqA {
		out.AddLE(a, c.ineqB[i])
	}
	for i, e := range c.eqA {
		out.AddEQ(e, c.eqB[i])
	}
	copy(out.lo, c.lo)
	copy(out.hi, c.hi)
	return out
}

// unitCoef returns the i-th standard basis vector of length n.
func unitCoef(n, i int) []float64 {
	a := make([]float64, n)
	a[i] = 1
	return a
}

// ones returns the all-ones vector of length n.
func ones(n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	return a
}

// SumEquals constrains Σx = total (e.g. a fixed per-NPU BW budget).
func (c *Constraints) SumEquals(total float64) *Constraints {
	return c.AddEQ(ones(c.n), total)
}

// SumAtMost constrains Σx ≤ total.
func (c *Constraints) SumAtMost(total float64) *Constraints {
	return c.AddLE(ones(c.n), total)
}

// VarAtMost constrains x_i ≤ v (e.g. "inter-Pod BW ≤ 50 GB/s").
func (c *Constraints) VarAtMost(i int, v float64) *Constraints { return c.SetUpper(i, v) }

// VarAtLeast constrains x_i ≥ v.
func (c *Constraints) VarAtLeast(i int, v float64) *Constraints { return c.SetLower(i, v) }

// Ordered constrains x_i ≥ x_j (e.g. "B1 ≥ B2 ≥ B3").
func (c *Constraints) Ordered(i, j int) *Constraints {
	a := make([]float64, c.n)
	a[i] = -1
	a[j] = 1
	return c.AddLE(a, 0)
}

// PairSumEquals constrains x_i + x_j = v (e.g. "B1 + B2 = 500 GB/s").
func (c *Constraints) PairSumEquals(i, j int, v float64) *Constraints {
	a := make([]float64, c.n)
	a[i], a[j] = 1, 1
	return c.AddEQ(a, v)
}

// WeightedSumAtMost constrains coef·x ≤ v (e.g. a dollar-cost budget with
// per-dimension cost rates as coefficients).
func (c *Constraints) WeightedSumAtMost(coef []float64, v float64) *Constraints {
	return c.AddLE(coef, v)
}
