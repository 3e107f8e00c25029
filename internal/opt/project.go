package opt

import (
	"math"
	"slices"
)

// Project returns the Euclidean projection of x0 onto the constraint
// polyhedron. A set of box bounds plus at most one general row with
// all-positive coefficients (a budget) is projected exactly by a
// breakpoint search (see separable). Every other set runs the primal
// active-set QP solver (Q = I), falling back to Dykstra's alternating
// projections if the active-set method stalls on a degenerate working
// set.
//
// Project builds a fresh projector on every call. The solver instead keeps
// one projector per worker: it projects its seeds and runs every start's
// local search (gradient steps and the Nelder-Mead polish) through it.
// Each call resets all of the projector's per-call state, so the results
// equal those of Project bit for bit.
func Project(c *Constraints, x0 []float64) []float64 {
	pr := newProjector(c)
	return clone(pr.project(x0))
}

// projector performs repeated Euclidean projections onto one constraint
// set, reusing the materialized row table and every correction/scratch
// buffer across calls — the projection inner loops are the solver's
// allocation hot spot. Every call resets all per-call state, so a result
// never depends on what the projector projected before. The slice project
// returns aliases internal scratch: it is valid only until the next call,
// must be cloned if kept, and must never be fed back in as a later input.
// Not safe for concurrent use; each solver worker owns one.
type projector struct {
	c    *Constraints
	rows []row
	n    int
	res  []float64 // result buffer aliased by project's return value
	y    []float64 // Dykstra: x + p_i scratch
	corr []float64 // Dykstra: correction vectors, flat len(rows)·n
	prev []float64 // Dykstra: previous iterate
	// corrZero[i] marks a correction vector known to be all-zero, enabling
	// dykstra's inactive-row fast path.
	corrZero []bool
	// touched[i] marks a row the current Dykstra sweep projected onto, and
	// rowDrift[i] how far that sweep moved its correction vector.
	touched   []bool
	rowDrift  []float64
	inWorking []bool
	working   []int
	// Active-set KKT scratch: an augmented (A Aᵀ | rhs) system solved in
	// place per iteration, plus the candidate point and step direction.
	kktFlat []float64
	kktRows [][]float64
	lam     []float64
	z       []float64
	dir     []float64
	// sep marks a set the exact breakpoint projection handles: box
	// bounds plus at most one general row sepA·x ≤ sepB (= when sepEq)
	// with every coefficient > 0 (sepA nil: box only). bp is that
	// projection's breakpoint scratch, 2n long.
	sep   bool
	sepA  []float64
	sepB  float64
	sepEq bool
	bp    []float64
}

func newProjector(c *Constraints) *projector {
	rows := c.rows()
	n, m := c.n, len(rows)
	// All scratch comes from one float, one bool and one int allocation:
	// a solve builds a projector per worker, and per-slice allocations
	// were most of its bytes.
	fs := make([]float64, 7*n+m*n+2*m+m*(m+1))
	take := func(k int) []float64 {
		out := fs[:k:k]
		fs = fs[k:]
		return out
	}
	bs := make([]bool, 3*m)
	pr := &projector{
		c:         c,
		rows:      rows,
		n:         n,
		res:       take(n),
		bp:        take(2 * n),
		y:         take(n),
		corr:      take(m * n),
		prev:      take(n),
		corrZero:  bs[0:m:m],
		touched:   bs[m : 2*m : 2*m],
		rowDrift:  take(m),
		inWorking: bs[2*m : 3*m : 3*m],
		working:   make([]int, 0, m),
		kktFlat:   take(m * (m + 1)),
		kktRows:   make([][]float64, m),
		lam:       take(m),
		z:         take(n),
		dir:       take(n),
	}
	pr.sepA, pr.sepB, pr.sepEq, pr.sep = separableRow(c)
	return pr
}

// separableRow classifies a constraint set once per projector. It
// reports ok for box bounds plus at most one general row whose
// coefficients are all finite and > 0 — the shape of every budget the
// solver sees (ΣB = budget, a dollar budget, a positive weighted sum,
// with dimension caps and floors as bounds) — and returns that row (a
// nil a for box only). Any other shape, or a set that is empty, is not
// separable and stays on the active-set/Dykstra path.
func separableRow(c *Constraints) (a []float64, b float64, eq, ok bool) {
	if len(c.ineqA)+len(c.eqA) > 1 {
		return nil, 0, false, false
	}
	for i := range c.lo {
		if !(c.lo[i] <= c.hi[i]) || math.IsInf(c.lo[i], 1) || math.IsInf(c.hi[i], -1) {
			return nil, 0, false, false
		}
	}
	switch {
	case len(c.ineqA) == 1:
		a, b = c.ineqA[0], c.ineqB[0]
	case len(c.eqA) == 1:
		a, b, eq = c.eqA[0], c.eqB[0], true
	default:
		return nil, 0, false, true
	}
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return nil, 0, false, false
	}
	// With a > 0 the set is nonempty iff a·lo ≤ b (and b ≤ a·hi for an
	// equality); infinite bounds make these sums infinite, never NaN.
	sumLo, sumHi := 0.0, 0.0
	for i, ai := range a {
		if !(ai > 0) || math.IsInf(ai, 1) {
			return nil, 0, false, false
		}
		sumLo += ai * c.lo[i]
		sumHi += ai * c.hi[i]
	}
	if !(sumLo <= b) || (eq && !(b <= sumHi)) {
		return nil, 0, false, false
	}
	return a, b, eq, true
}

// project computes the projection of x0 into pr.res and returns it. x0
// must not alias a previous return value.
func (pr *projector) project(x0 []float64) []float64 {
	if pr.c.Feasible(x0, 1e-12) {
		copy(pr.res, x0)
		return pr.res
	}
	if pr.sep {
		pr.separable(x0)
		// A result that rounding pushed out of the set (extreme
		// magnitudes only) is recomputed on the general path.
		if pr.c.Feasible(pr.res, 1e-7) {
			return pr.res
		}
	}
	if pr.activeSet(x0) && pr.c.Feasible(pr.res, 1e-7) {
		return pr.res
	}
	pr.dykstra(x0, 2000, 1e-12)
	return pr.res
}

// separable writes the exact projection of x0 onto a separable set into
// pr.res and returns its multiplier. With the row a·x ≤ b (or = b) the
// projection is x(λ) = clip(x0 − λa, lo, hi) for the λ that puts x(λ)
// on the row — λ = 0 when clip(x0) already satisfies an inequality — so
// the work is finding λ (see lambda). Box-only sets take λ = 0.
//
//libra:hotpath
func (pr *projector) separable(x0 []float64) float64 {
	lam := 0.0
	if a := pr.sepA; a != nil && (pr.sepEq || rowAt(a, pr.c.lo, pr.c.hi, x0, 0) > pr.sepB) {
		lam = pr.lambda(x0)
	}
	lo, hi, x := pr.c.lo, pr.c.hi, pr.res
	for i := range x {
		v := x0[i]
		if lam != 0 {
			v -= lam * pr.sepA[i]
		}
		x[i] = clamp(v, lo[i], hi[i])
	}
	return lam
}

// lambda returns the λ solving g(λ) = b for g(λ) = a·clip(x0 − λa, lo, hi).
// g is continuous, nonincreasing and linear between the breakpoints
// where a coordinate reaches a bound: (x0_i − hi_i)/a_i and
// (x0_i − lo_i)/a_i. lambda sorts those breakpoints, binary-searches the
// first one with g ≤ b, and solves the linear piece that brackets the
// root in closed form. An inequality row reaches here only with
// g(0) > b, so its search starts at 0 and λ > 0.
//
//libra:hotpath
func (pr *projector) lambda(x0 []float64) float64 {
	a, b, lo, hi := pr.sepA, pr.sepB, pr.c.lo, pr.c.hi
	lower, upper := 0.0, math.Inf(1)
	if pr.sepEq {
		lower = math.Inf(-1)
	}
	// Infinite bounds give infinite breakpoints, which are never reached.
	bp := pr.bp[:0]
	for i, ai := range a {
		if t := (x0[i] - hi[i]) / ai; lower < t && t < upper {
			bp = append(bp, t)
		}
		if t := (x0[i] - lo[i]) / ai; lower < t && t < upper {
			bp = append(bp, t)
		}
	}
	slices.Sort(bp)
	k, j := 0, len(bp)
	for k < j {
		mid := int(uint(k+j) >> 1)
		if rowAt(a, lo, hi, x0, bp[mid]) <= b {
			j = mid
		} else {
			k = mid + 1
		}
	}
	if k < len(bp) {
		upper = bp[k]
		if rowAt(a, lo, hi, x0, upper) == b {
			return upper
		}
	}
	if k > 0 {
		lower = bp[k-1]
	}
	// On (lower, upper) every coordinate is pinned at a bound or free;
	// the free ones move as x0_i − λa_i, so g(λ) = b is linear in λ.
	num, den := -b, 0.0
	for i, ai := range a {
		switch {
		case (x0[i]-hi[i])/ai >= upper:
			num += ai * hi[i]
		case (x0[i]-lo[i])/ai <= lower:
			num += ai * lo[i]
		default:
			num += ai * x0[i]
			den += ai * ai
		}
	}
	if den == 0 {
		// g is flat on the bracket (rounding only): stay on its edge.
		if k < len(bp) {
			return upper
		}
		return lower
	}
	return num / den
}

// rowAt returns g(λ) = a·clip(x0 − λa, lo, hi).
//
//libra:hotpath
func rowAt(a, lo, hi, x0 []float64, lam float64) float64 {
	s := 0.0
	for i, ai := range a {
		s += ai * clamp(x0[i]-lam*ai, lo[i], hi[i])
	}
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// dykstra implements Dykstra's alternating-projection algorithm over the
// polyhedron's halfspaces and hyperplanes, writing the result into pr.res.
// It converges to the exact Euclidean projection for convex sets; each
// elementary projection is closed-form.
func (pr *projector) dykstra(x0 []float64, maxSweeps int, tol float64) {
	rows := pr.rows
	x := pr.res
	copy(x, x0)
	if len(rows) == 0 {
		return
	}
	n := pr.n
	// Dykstra correction vectors, one per constraint, zeroed per call.
	corr := pr.corr
	for i := range corr {
		corr[i] = 0
	}
	corrZero, touched, rowDrift := pr.corrZero, pr.touched, pr.rowDrift
	for i := range corrZero {
		corrZero[i] = true
	}
	prev := pr.prev
	copy(prev, x)
	y := pr.y
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for i := range rows {
			r := &rows[i]
			// Inactive inequality with a zero correction: y = x + 0 and
			// the halfspace projection returns y unchanged, so the whole
			// row op is a no-op — the dot product alone decides. Most rows
			// of a sweep-state polyhedron (slack bounds) take this path
			// every sweep.
			if corrZero[i] && !r.eq && r.dot(x) <= r.b {
				touched[i] = false
				continue
			}
			touched[i] = true
			// y = x + p_i, then project y onto constraint i (closed form:
			// y − (v/a·a)·a when the row binds), and in the same pass
			// replace p_i by y − proj and x by proj.
			pi := corr[i*n : (i+1)*n]
			for k := range y {
				y[k] = x[k] + pi[k]
			}
			v := r.dot(y) - r.b
			moves := (r.eq || v > 0) && r.den != 0
			alpha := -v / r.den
			zero := true
			ss := 0.0
			for k := range x {
				proj := y[k]
				if moves {
					proj += alpha * r.a[k]
				}
				c := y[k] - proj
				d := c - pi[k]
				ss += d * d
				pi[k] = c
				if c != 0 {
					zero = false
				}
				x[k] = proj
			}
			corrZero[i] = zero
			rowDrift[i] = math.Sqrt(ss)
		}
		// Stop only when the whole sweep state — iterate AND corrections —
		// has stopped moving. The iterate alone can sit still for a sweep
		// while the corrections rebalance and then escape (a transient
		// fixed point of x, not of the map), so watching x only can latch
		// onto a feasible non-projection point. A row's correction moves
		// only when the sweep touches it, and then exactly once, so its
		// drift is measured against its value before that update; the
		// rows a sweep skips keep their correction and add nothing.
		drift := normDiff(x, prev)
		for i := range rows {
			if touched[i] {
				drift += rowDrift[i]
			}
		}
		if drift < tol*(1+norm2(x)) && pr.c.Feasible(x, 1e-9) {
			break
		}
		copy(prev, x)
	}
}

func normDiff(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// activeSet solves min ½‖x−x0‖² s.t. the polyhedron, with a primal
// active-set method, writing the result into pr.res. Returns false if it
// fails to make progress (cycling or singular KKT), in which case the
// caller should fall back to Dykstra.
func (pr *projector) activeSet(x0 []float64) bool {
	rows := pr.rows
	// Feasible start: a few Dykstra sweeps are enough to get inside.
	pr.dykstra(x0, 300, 1e-11)
	x := pr.res
	if !pr.c.Feasible(x, 1e-7) {
		return false
	}

	// Working set: all equalities plus inequalities active at x.
	const actTol = 1e-8
	working := pr.working[:0]
	inWorking := pr.inWorking
	for i := range inWorking {
		inWorking[i] = false
	}
	for i := range rows {
		r := &rows[i]
		if r.eq || math.Abs(r.dot(x)-r.b) < actTol {
			working = append(working, i)
			inWorking[i] = true
		}
	}

	for iter := 0; iter < 200; iter++ {
		// Solve the equality-constrained projection onto the working set:
		// min ½‖z−x0‖² s.t. a_w·z = b_w  →  KKT system in (z, λ).
		z, lambda, ok := pr.eqProject(x0, working)
		if !ok {
			// Degenerate working set: drop the most recently added row.
			if len(working) == 0 {
				return true
			}
			last := working[len(working)-1]
			if rows[last].eq {
				return false
			}
			inWorking[last] = false
			working = working[:len(working)-1]
			continue
		}
		dir := pr.dir
		for k := range dir {
			dir[k] = z[k] - x[k]
		}
		if norm2(dir) < 1e-10 {
			// At the working-set minimizer: check inequality multipliers.
			minLambda, minIdx := 0.0, -1
			for k, wi := range working {
				if rows[wi].eq {
					continue
				}
				if lambda[k] < minLambda {
					minLambda, minIdx = lambda[k], k
				}
			}
			if minIdx < 0 || minLambda > -1e-9 {
				return true // KKT satisfied
			}
			inWorking[working[minIdx]] = false
			working = append(working[:minIdx], working[minIdx+1:]...)
			continue
		}
		// Step toward z, stopping at the first blocking constraint.
		alpha, blocking := 1.0, -1
		for i := range rows {
			r := &rows[i]
			if inWorking[i] || r.eq {
				continue
			}
			ad := r.dot(dir)
			if ad <= 1e-12 {
				continue
			}
			room := (r.b - r.dot(x)) / ad
			if room < alpha {
				alpha, blocking = room, i
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		axpy(alpha, dir, x)
		if blocking >= 0 {
			working = append(working, blocking)
			inWorking[blocking] = true
		}
	}
	return false
}

// eqProject solves min ½‖z−x0‖² s.t. a_w·z = b_w for all w in the working
// set, via the KKT system:
//
//	[ I  Aᵀ ] [z]   [x0]
//	[ A  0  ] [λ] = [b ]
//
// Eliminating z = x0 − Aᵀλ gives (A Aᵀ) λ = A x0 − b. The returned slices
// alias projector scratch, valid until the next call.
func (pr *projector) eqProject(x0 []float64, working []int) (z, lambda []float64, ok bool) {
	m := len(working)
	z = pr.z
	if m == 0 {
		copy(z, x0)
		return z, nil, true
	}
	rows := pr.rows
	kkt := pr.kktRows[:m]
	w := m + 1
	for i, wi := range working {
		r := pr.kktFlat[i*w : i*w+w]
		for j, wj := range working {
			r[j] = rows[wi].dot(rows[wj].a)
		}
		r[m] = rows[wi].dot(x0) - rows[wi].b
		kkt[i] = r
	}
	lam := pr.lam[:m]
	if !solveAugmented(kkt, lam) {
		return nil, nil, false
	}
	copy(z, x0)
	for i, wi := range working {
		axpy(-lam[i], rows[wi].a, z)
	}
	return z, lam, true
}

// solveAugmented runs Gaussian elimination with partial pivoting on an
// in-place augmented system [A|b] (n rows of length n+1), writing the
// solution into x. Returns false for (numerically) singular systems.
func solveAugmented(m [][]float64, x []float64) bool {
	n := len(m)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return true
}
