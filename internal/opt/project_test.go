package opt

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomPolyhedron builds a feasible constraint set over 2–6 variables
// around a random interior point z, mixing every row shape the solver
// sees: lower and upper bounds, a budget (sum) row, ordering rows, a
// pair sum and a weighted sum.
func randomPolyhedron(rng *rand.Rand) *Constraints {
	n := 2 + rng.Intn(5)
	z := make([]float64, n)
	for i := range z {
		z[i] = 1 + 99*rng.Float64()
	}
	c := NewConstraints(n).SetAllLower(0.1)
	for i := range z {
		if rng.Intn(3) == 0 {
			c.SetUpper(i, z[i]+20*rng.Float64())
		}
		if rng.Intn(4) == 0 {
			c.SetLower(i, z[i]*rng.Float64())
		}
	}
	sum := 0.0
	for _, v := range z {
		sum += v
	}
	switch rng.Intn(3) {
	case 0:
		c.SumEquals(sum)
	case 1:
		c.SumAtMost(sum + 10*rng.Float64())
	}
	for k := 0; k < rng.Intn(3); k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j && z[i] >= z[j] {
			c.Ordered(i, j)
		}
	}
	if rng.Intn(3) == 0 {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			c.PairSumEquals(i, j, z[i]+z[j])
		}
	}
	if rng.Intn(2) == 0 {
		coef := make([]float64, n)
		v := 0.0
		for i := range coef {
			coef[i] = 0.5 + 3*rng.Float64()
			v += coef[i] * z[i]
		}
		c.WeightedSumAtMost(coef, v+5*rng.Float64())
	}
	return c
}

// randomPoint draws a point to project: mostly outside the polyhedron
// (negative entries, entries far above the budget), sometimes on its
// lower bound, sometimes with signed zeros.
func randomPoint(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0.1
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = 0
		default:
			x[i] = -50 + 400*rng.Float64()
		}
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestProjectorReuseMatchesFreshProject feeds one long-lived projector a
// seeded random sequence of points and checks every result against a
// fresh Project call and against the dense reference implementation: a
// projector must reset all per-call state (corrections, touched flags,
// working set, KKT scratch, breakpoints) so that reuse never moves a bit.
// Sets on the active-set/Dykstra path must also match the reference bit
// for bit. Separable sets project exactly, so there the reference (an
// iterative method) is only matched to within rounding, and the exact
// result must be at least as close to x0.
func TestProjectorReuseMatchesFreshProject(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points, separable := 0, 0
	for poly := 0; poly < 60; poly++ {
		c := randomPolyhedron(rng)
		pr := newProjector(c)
		for k := 0; k < 25; k++ {
			x0 := randomPoint(rng, c.N())
			reused := clone(pr.project(x0))
			fresh := Project(c, x0)
			ref := referenceProject(c, x0)
			if !sameBits(reused, fresh) {
				t.Fatalf("polyhedron %d point %d: reused projector %v, fresh Project %v (x0 %v)", poly, k, reused, fresh, x0)
			}
			if !pr.sep {
				if !sameBits(fresh, ref) {
					t.Fatalf("polyhedron %d point %d: Project %v, dense reference %v (x0 %v)", poly, k, fresh, ref, x0)
				}
			} else {
				separable++
				if d := normDiff(fresh, ref); d > 1e-9*(1+norm2(x0)) {
					t.Fatalf("polyhedron %d point %d: exact projection %v is %g from the reference %v (x0 %v)", poly, k, fresh, d, ref, x0)
				}
				if got, want := normDiff(fresh, x0), normDiff(ref, x0); got > want+1e-9 {
					t.Fatalf("polyhedron %d point %d: exact projection is %v from x0, the reference %v", poly, k, got, want)
				}
			}
			points++
		}
	}
	t.Logf("%d projections, %d on separable sets", points, separable)
}

// randomSeparable builds a box + one-row set over 1–6 variables: bounds
// that may be infinite, coefficients and bounds drawn from a small grid
// so breakpoints tie, and a row through a random point z of the box (=
// form) or above it (≤ form); z is returned as a feasible point. empty
// moves the row below the box, which makes the set empty.
func randomSeparable(rng *rand.Rand, empty bool) (c *Constraints, a []float64, b float64, eq bool, z []float64) {
	n := 1 + rng.Intn(6)
	c = NewConstraints(n)
	a = make([]float64, n)
	z = make([]float64, n)
	for i := range a {
		a[i] = float64(1+rng.Intn(4)) / 2
		lo, hi := math.Inf(-1), math.Inf(1)
		if empty || rng.Intn(4) > 0 {
			lo = float64(rng.Intn(5) * 10)
		}
		if rng.Intn(3) > 0 {
			hi = math.Max(lo, 0) + float64(rng.Intn(4)*20)
		}
		c.SetLower(i, lo)
		c.SetUpper(i, hi)
		z[i] = clamp(float64(rng.Intn(8)*10), lo, hi)
	}
	b = dot(a, z)
	eq = rng.Intn(2) == 0
	switch {
	case empty:
		lo := 0.0
		for i := range a {
			lo += a[i] * c.Lower(i)
		}
		b = lo - 1 - float64(rng.Intn(10))
	case eq:
	default:
		b += float64(rng.Intn(3) * 15)
	}
	if eq {
		c.AddEQ(a, b)
	} else {
		c.AddLE(a, b)
	}
	return c, a, b, eq, z
}

// checkSeparable projects x0 onto a separable set and checks the result:
// feasible to 1e-9, of the KKT form x = clip(x0 − λa, lo, hi) (λ ≥ 0 and
// λ·(a·x − b) = 0 for an inequality), and at least as close to x0 as the
// dense reference's answer, to within 1e-9·(1+‖x0‖).
func checkSeparable(t *testing.T, c *Constraints, a []float64, b float64, eq bool, x0 []float64) {
	t.Helper()
	pr := newProjector(c)
	if !pr.sep {
		t.Fatalf("nonempty box + one positive row classified as general (a %v, b %v, eq %v)", a, b, eq)
	}
	lam := pr.separable(x0)
	x := clone(pr.res)
	if got := pr.project(x0); !c.Feasible(x0, 1e-12) && !sameBits(got, x) {
		t.Fatalf("project %v, separable kernel %v", got, x)
	}
	if v := c.Violation(x); v > 1e-9 {
		t.Fatalf("x0 %v → %v violates the set by %g (a %v, b %v, eq %v)", x0, x, v, a, b, eq)
	}
	tol := 1e-9 * (1 + norm2(x0))
	for i := range x {
		free := x0[i] - lam*a[i]
		lo, hi := c.Lower(i), c.Upper(i)
		switch {
		case x[i] == lo && x[i] == hi:
		case x[i] == lo:
			if free > lo+tol {
				t.Fatalf("x[%d] = %v sits on its lower bound, but x0 − λa = %v (λ %v)", i, x[i], free, lam)
			}
		case x[i] == hi:
			if free < hi-tol {
				t.Fatalf("x[%d] = %v sits on its upper bound, but x0 − λa = %v (λ %v)", i, x[i], free, lam)
			}
		default:
			if math.Abs(x[i]-free) > tol {
				t.Fatalf("x[%d] = %v is free, but x0 − λa = %v (λ %v)", i, x[i], free, lam)
			}
		}
	}
	if !eq {
		if lam < 0 {
			t.Fatalf("inequality multiplier λ = %v < 0", lam)
		}
		if slack := lam * (dot(a, x) - b); math.Abs(slack) > tol*(1+lam) {
			t.Fatalf("complementary slackness: λ·(a·x − b) = %v", slack)
		}
	}
	// The reference is iterative: it may stop up to 1e-9 outside the set
	// and so sit slightly closer to x0 than any feasible point, by more
	// the farther x0 lies, hence the tolerance scales with x0. A
	// reference further outside is no bound at all.
	if ref := referenceProject(c, x0); c.Feasible(ref, 1e-9) {
		if got, want := normDiff(x, x0), normDiff(ref, x0); got > want+tol {
			t.Fatalf("x0 %v: exact projection %v is %v away, reference %v only %v", x0, x, got, ref, want)
		}
	}
}

// TestSeparableProjectionKKT checks the exact breakpoint projection on
// random box + one-row sets in both = and ≤ form: infinite bounds, tied
// breakpoints, points already inside, and empty sets, which must stay on
// the general path and match its reference bit for bit.
func TestSeparableProjectionKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 3000; k++ {
		c, a, b, eq, z := randomSeparable(rng, k%10 == 9)
		x0 := make([]float64, c.N())
		for i := range x0 {
			x0[i] = float64(rng.Intn(41)*5 - 50)
		}
		if k%7 == 0 && k%10 != 9 {
			// Already feasible: the projection is x0 itself.
			copy(x0, z)
			if got := Project(c, x0); !sameBits(got, x0) {
				t.Fatalf("feasible x0 %v moved to %v", x0, got)
			}
		}
		if k%10 == 9 {
			if pr := newProjector(c); pr.sep {
				t.Fatalf("empty set (a %v, b %v, eq %v) classified separable", a, b, eq)
			}
			if got, ref := Project(c, x0), referenceProject(c, x0); !sameBits(got, ref) {
				t.Fatalf("empty set: Project %v, reference %v", got, ref)
			}
			continue
		}
		checkSeparable(t, c, a, b, eq, x0)
	}
}

// TestSeparableClassification pins which constraint shapes take the exact
// projection.
func TestSeparableClassification(t *testing.T) {
	cases := []struct {
		name string
		c    *Constraints
		want bool
	}{
		{"box only", NewConstraints(3).SetAllLower(1), true},
		{"budget", NewConstraints(3).SetAllLower(1).SumEquals(30), true},
		{"budget with cap", NewConstraints(3).SetAllLower(1).SumEquals(30).VarAtMost(0, 5), true},
		{"sum at most", NewConstraints(3).SumAtMost(30), true},
		{"positive weighted sum", NewConstraints(3).SetAllLower(0).WeightedSumAtMost([]float64{1, 2, 3}, 30), true},
		{"zero coefficient", NewConstraints(3).SetAllLower(0).WeightedSumAtMost([]float64{1, 0, 3}, 30), false},
		{"ge row", NewConstraints(3).SetAllLower(0).AddGE([]float64{1, 1, 1}, 3), false},
		{"ordered", NewConstraints(3).SetAllLower(1).SumEquals(30).Ordered(0, 1), false},
		{"pair sum", NewConstraints(3).SetAllLower(1).PairSumEquals(0, 1, 10), false},
		{"budget and pair sum", NewConstraints(3).SetAllLower(1).SumEquals(30).PairSumEquals(0, 1, 10), false},
		{"two rows", NewConstraints(3).SetAllLower(1).SumEquals(30).SumAtMost(40), false},
		{"empty: floors above budget", NewConstraints(3).SetAllLower(20).SumEquals(30), false},
		{"empty: caps below budget", NewConstraints(2).SetAllLower(0).VarAtMost(0, 1).VarAtMost(1, 1).SumEquals(30), false},
		{"empty: crossed bounds", NewConstraints(2).SetAllLower(5).VarAtMost(0, 1), false},
	}
	for _, tc := range cases {
		if got := newProjector(tc.c).sep; got != tc.want {
			t.Errorf("%s: separable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRowDotMatchesDense pins the O(1) bound-row product to the dense
// sum, signed zeros included.
func TestRowDotMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xs := [][]float64{
		{3, -2, 5.5},
		{0, negZero, 7},
		{negZero, negZero, negZero},
		{1e-300, -1e300, 0},
	}
	for _, x := range xs {
		for i := range x {
			for _, sign := range []float64{-1, 1} {
				r := boundRow(len(x), i, sign, 0)
				got, want := r.dot(x), dot(r.a, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("bound row %v·%v: O(1) %v (bits %x), dense %v (bits %x)",
						r.a, x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// referenceProject is the dense projection the projector replaced: every
// row product is a full dot, every Dykstra row op copies, and the drift
// test compares each correction against a full copy of the previous
// sweep's. Kept as the oracle the bit-identity tests compare against.
func referenceProject(c *Constraints, x0 []float64) []float64 {
	if c.Feasible(x0, 1e-12) {
		return clone(x0)
	}
	rows := c.rows()
	if x, ok := referenceActiveSet(c, rows, x0); ok && c.Feasible(x, 1e-7) {
		return x
	}
	return referenceDykstra(c, rows, x0, 2000, 1e-12)
}

func referenceDykstra(c *Constraints, rows []row, x0 []float64, maxSweeps int, tol float64) []float64 {
	x := clone(x0)
	if len(rows) == 0 {
		return x
	}
	n := len(x0)
	corr := make([]float64, len(rows)*n)
	prevCorr := make([]float64, len(rows)*n)
	corrZero := make([]bool, len(rows))
	for i := range corrZero {
		corrZero[i] = true
	}
	prev := clone(x)
	y, proj := make([]float64, n), make([]float64, n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for i, r := range rows {
			pi := corr[i*n : (i+1)*n]
			if corrZero[i] && !r.eq && dot(r.a, x) <= r.b {
				continue
			}
			copy(y, x)
			axpy(1, pi, y)
			copy(proj, y)
			if v := dot(r.a, y) - r.b; r.eq || v > 0 {
				if den := dot(r.a, r.a); den != 0 {
					axpy(-v/den, r.a, proj)
				}
			}
			zero := true
			for k := range x {
				pi[k] = y[k] - proj[k]
				if pi[k] != 0 {
					zero = false
				}
				x[k] = proj[k]
			}
			corrZero[i] = zero
		}
		drift := normDiff(x, prev)
		for i := range rows {
			drift += normDiff(corr[i*n:(i+1)*n], prevCorr[i*n:(i+1)*n])
		}
		if drift < tol*(1+norm2(x)) && c.Feasible(x, 1e-9) {
			break
		}
		copy(prev, x)
		copy(prevCorr, corr)
	}
	return x
}

func referenceActiveSet(c *Constraints, rows []row, x0 []float64) ([]float64, bool) {
	x := referenceDykstra(c, rows, x0, 300, 1e-11)
	if !c.Feasible(x, 1e-7) {
		return nil, false
	}
	const actTol = 1e-8
	var working []int
	inWorking := make([]bool, len(rows))
	for i, r := range rows {
		if r.eq || math.Abs(dot(r.a, x)-r.b) < actTol {
			working = append(working, i)
			inWorking[i] = true
		}
	}
	for iter := 0; iter < 200; iter++ {
		z, lambda, ok := referenceEqProject(rows, x0, working)
		if !ok {
			if len(working) == 0 {
				return x, true
			}
			last := working[len(working)-1]
			if rows[last].eq {
				return nil, false
			}
			inWorking[last] = false
			working = working[:len(working)-1]
			continue
		}
		dir := make([]float64, len(x))
		for i := range dir {
			dir[i] = z[i] - x[i]
		}
		if norm2(dir) < 1e-10 {
			minLambda, minIdx := 0.0, -1
			for k, wi := range working {
				if !rows[wi].eq && lambda[k] < minLambda {
					minLambda, minIdx = lambda[k], k
				}
			}
			if minIdx < 0 || minLambda > -1e-9 {
				return x, true
			}
			inWorking[working[minIdx]] = false
			working = append(working[:minIdx], working[minIdx+1:]...)
			continue
		}
		alpha, blocking := 1.0, -1
		for i, r := range rows {
			if inWorking[i] || r.eq {
				continue
			}
			ad := dot(r.a, dir)
			if ad <= 1e-12 {
				continue
			}
			if room := (r.b - dot(r.a, x)) / ad; room < alpha {
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
	return nil, false
}

func referenceEqProject(rows []row, x0 []float64, working []int) (z, lambda []float64, ok bool) {
	m := len(working)
	if m == 0 {
		return clone(x0), nil, true
	}
	kkt := make([][]float64, m)
	for i, wi := range working {
		kkt[i] = make([]float64, m+1)
		for j, wj := range working {
			kkt[i][j] = dot(rows[wi].a, rows[wj].a)
		}
		kkt[i][m] = dot(rows[wi].a, x0) - rows[wi].b
	}
	lam := make([]float64, m)
	if !solveAugmented(kkt, lam) {
		return nil, nil, false
	}
	z = clone(x0)
	for i, wi := range working {
		axpy(-lam[i], rows[wi].a, z)
	}
	return z, lam, true
}

// Solves running at once share the seed PRNG pool: each must still draw
// exactly its own seed's sequence and match the same solve run alone.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	want := make([]Result, len(seeds))
	for i, s := range seeds {
		r, err := Minimize(perfPerCostProblem(4), Options{Seed: s, Starts: 6, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			got[i], errs[i] = Minimize(perfPerCostProblem(4), Options{Seed: s, Starts: 6, Workers: 2})
		}(i, s)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Float64bits(got[i].F) != math.Float64bits(want[i].F) || !sameBits(got[i].X, want[i].X) {
			t.Errorf("seed %d: concurrent %v / %v, alone %v / %v", seeds[i], got[i].X, got[i].F, want[i].X, want[i].F)
		}
	}
}
