package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"libra/internal/telemetry"
)

// Problem is a constrained minimization over an n-vector.
type Problem struct {
	N int
	// Objective must be finite on the feasible set; +Inf outside is fine.
	// Unless Options.Workers is 1, multistart runs concurrently, so the
	// objective must be safe for concurrent calls — a pure function of x,
	// as every closure in this repository is. Gradients are central finite
	// differences of it.
	Objective func(x []float64) float64
	Cons      *Constraints
}

// Sentinel option values. The zero value of an Options field selects the
// documented default, so "the default" and "explicitly zero" collide for
// Tol and Seed; these sentinels say "literally zero" unambiguously.
const (
	// TolExact requests an exactly-zero improvement tolerance (any
	// negative Tol does; this constant is the readable spelling).
	TolExact = -1.0
	// SeedZero requests the literal PRNG seed 0 (plain Seed: 0 selects
	// the default seed, 1).
	SeedZero = math.MinInt64
)

// Options tunes the solver. Zero values select the documented defaults;
// negative counts are rejected by Minimize. Fields whose zero value is
// also a meaningful setting (Tol, Seed) have sentinel spellings above.
type Options struct {
	// MaxIters bounds local-search iterations per start (default 600).
	MaxIters int
	// Tol is the relative objective-improvement stopping tolerance.
	// 0 selects the default 1e-9; negative values (use TolExact) select
	// an exactly-zero tolerance.
	Tol float64
	// Starts is the multistart count (default 8). Starts are
	// deterministic: heuristic seeds first, then seeded-random points.
	Starts int
	// Seed drives the deterministic PRNG for random starts. 0 selects
	// the default seed 1; use SeedZero for the literal seed 0.
	Seed int64
	// Convex declares the objective convex, enabling single-start early
	// exit once the local search converges. Under the default strategy it
	// also picks each start's local search: projected gradient when
	// convex, coordinate descent otherwise (see StrategyAuto).
	Convex bool
	// Workers is an upper bound on the goroutines running starts
	// concurrently: 0 selects GOMAXPROCS, 1 forces the sequential path.
	// Only starts whose outcome the solve keeps ever run, so a convex
	// solve runs its starts one at a time whatever Workers says (every
	// start can end it), and a warm solve with WarmTol > 0 runs at most
	// two until the cutoff is decided. Whatever the worker count, the
	// result is bit-identical to the sequential solve for a fixed seed.
	Workers int
	// Strategy selects the per-start local search (default StrategyAuto:
	// chosen by Convex).
	Strategy Strategy
	// WarmStart, when non-empty, seeds the multistart with a known-good
	// solution from a neighboring problem (the previous point of a budget
	// or cap sweep). The vector is projected onto the feasible set and
	// runs as start 0, ahead of the regular deterministic seeds, which
	// are unchanged — a warm solve explores the cold seed set plus the
	// warm point. Its length must equal the problem dimension and every
	// entry must be finite (see Validate); a warm start that projects
	// outside the feasible set is dropped, falling back to the regular
	// multistart.
	WarmStart []float64
	// WarmTol enables the adaptive warm-start cutoff. The warm start and
	// the first cold (heuristic) start both run the full local search;
	// when the warm search converged and its objective matches or beats
	// the cold start's within a WarmTol relative margin, the neighbor's
	// basin has proven itself against the strongest cold seed and the
	// remaining starts are skipped. When the cold start wins by more than
	// the margin, the full multistart continues unchanged. 0 disables the
	// cutoff (the warm start joins a full multistart); negative or
	// non-finite values are rejected. Ignored without WarmStart.
	WarmTol float64
}

// DefaultWarmTol is the warm-start cutoff margin the sweep layers
// (frontier columns, cluster partition grids, figure sweeps) use: loose
// enough that two converged descents into one basin always match, tight
// enough that a genuinely better cold basin keeps the full multistart
// alive.
const DefaultWarmTol = 1e-6

// Validate checks o against an n-variable problem without solving:
// negative counts, unknown strategies, and malformed warm-start state
// (wrong length, NaN/±Inf entries, negative WarmTol) are rejected exactly
// as MinimizeContext would reject them. Pass n ≤ 0 to skip the
// warm-start length check when the dimension is not yet known.
func (o Options) Validate(n int) error {
	_, err := o.withDefaults(n)
	return err
}

func (o Options) withDefaults(n int) (Options, error) {
	if o.MaxIters < 0 {
		return o, fmt.Errorf("opt: negative MaxIters %d", o.MaxIters)
	}
	if o.Starts < 0 {
		return o, fmt.Errorf("opt: negative Starts %d", o.Starts)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("opt: negative Workers %d", o.Workers)
	}
	if o.WarmTol < 0 || math.IsNaN(o.WarmTol) || math.IsInf(o.WarmTol, 0) {
		return o, fmt.Errorf("opt: invalid WarmTol %v (want a finite value ≥ 0)", o.WarmTol)
	}
	if len(o.WarmStart) > 0 {
		if n > 0 && len(o.WarmStart) != n {
			return o, fmt.Errorf("opt: WarmStart has %d entries for an %d-variable problem", len(o.WarmStart), n)
		}
		for i, v := range o.WarmStart {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return o, fmt.Errorf("opt: WarmStart[%d] = %v is not finite", i, v)
			}
		}
	}
	strat, err := ParseStrategy(string(o.Strategy))
	if err != nil {
		return o, err
	}
	o.Strategy = strat // normalize aliases ("cd", "pgd") to canonical keys
	if o.MaxIters == 0 {
		o.MaxIters = 600
	}
	switch {
	case o.Tol < 0: // TolExact and friends
		o.Tol = 0
	case o.Tol == 0:
		o.Tol = 1e-9
	}
	if o.Starts == 0 {
		o.Starts = 8
	}
	switch o.Seed {
	case SeedZero:
		o.Seed = 0
	case 0:
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Result reports the best point found.
type Result struct {
	X         []float64
	F         float64
	Starts    int
	Converged bool
	// WarmCut reports that the warm-start adaptive cutoff answered the
	// solve: the warm start converged, matched or beat the first cold
	// start within WarmTol, and the remaining starts were skipped.
	WarmCut bool
}

// Minimize solves the problem with deterministic multistart local search
// (by default projected gradient for convex objectives and coordinate
// descent otherwise, each with a Nelder-Mead polish; see Strategy). For
// convex problems the first converged start is returned.
func Minimize(p Problem, o Options) (Result, error) {
	return MinimizeContext(context.Background(), p, o) //libra:allow ctxflow compat wrapper: context-free entry point deliberately roots here
}

// MinimizeContext is Minimize under a context: the solve polls ctx between
// iterations and returns ctx.Err() (wrapped) as soon as the context is
// canceled or its deadline passes, discarding any partial progress.
//
// No start runs whose outcome the selection would discard (see
// folder.span): convex starts run one at a time, the others fan out over
// up to Options.Workers goroutines. Selection replays the sequential
// order, so the returned X/F/Starts are bit-identical to a Workers: 1
// solve for the same seed.
//
// Warm-starting (Options.WarmStart) is equally deterministic: the warm
// point is prepended to the unchanged cold seed set, so a fixed
// (seed, warm vector) pair always yields the same result regardless of
// worker count, and a solve without WarmStart is bit-identical to one
// from before the seam existed.
func MinimizeContext(ctx context.Context, p Problem, o Options) (Result, error) {
	if p.N < 1 || p.Objective == nil || p.Cons == nil {
		return Result{}, fmt.Errorf("opt: problem needs N ≥ 1, an objective, and constraints")
	}
	if p.Cons.N() != p.N {
		return Result{}, fmt.Errorf("opt: constraints over %d variables for an %d-variable problem", p.Cons.N(), p.N)
	}
	o, err := o.withDefaults(p.N)
	if err != nil {
		return Result{}, err
	}

	// One projector serves the seeds and every start the calling goroutine
	// runs; other workers build their own.
	pr := newProjector(p.Cons)
	sd := newSeeder(p, pr, o)
	defer sd.release()
	fd := newFolder(o, sd.warm)
	stop := false
	for si := 0; !stop; {
		batch := sd.take(fd.span(si))
		if len(batch) == 0 {
			break
		}
		outs, err := runStarts(ctx, p, pr, batch, o)
		if err != nil {
			return Result{}, err
		}
		for j := 0; j < len(outs) && !stop; j++ {
			stop = fd.fold(outs[j], si)
			si++
		}
	}
	switch {
	case fd.best.Starts == 0:
		return Result{}, fmt.Errorf("opt: could not build any feasible start (empty feasible set?)")
	case fd.best.X == nil:
		return Result{}, fmt.Errorf("opt: no start produced a finite objective")
	}
	res := fd.best
	// Solve-level accounting: one atomic bump per solve, nothing inside
	// the per-start searches. Every seed the plan allowed but no start
	// ran — past an early exit, or never built — counts as skipped.
	telemetry.SolverSolves.Inc()
	if !pr.sep {
		telemetry.SolverGeneralPathSolves.Inc()
	}
	if skipped := sd.limit - res.Starts; skipped > 0 {
		telemetry.SolverStartsSkipped.Add(uint64(skipped))
	}
	if sd.warm {
		telemetry.SolverWarmSolves.Inc()
		if res.WarmCut {
			telemetry.SolverWarmCuts.Inc()
		}
	}
	return res, nil
}

// startOutcome is the product of one multistart start: a locally-searched
// point, its objective, and whether the search converged.
type startOutcome struct {
	x    []float64
	f    float64
	conv bool
}

// runStart performs the full per-start local search under the selected
// strategy, projecting with pr. It is a pure function of (p, start, o) —
// scheduling cannot change its result, and pr is scratch that every
// projection resets — which is what makes parallel multistart
// deterministic. Warm and cold starts run the identical search: the
// warm-start cutoff is a selection decision (see folder.fold), not a
// different per-start algorithm.
//
//libra:hotpath
func runStart(ctx context.Context, p Problem, pr *projector, start []float64, o Options) startOutcome {
	telemetry.SolverStarts.Inc()
	// The default strategy picks the local search by convexity (see
	// StrategyAuto). Iteration totals land as one atomic add per search
	// per start — the inner loops stay untouched.
	var out startOutcome
	var iters int
	if o.Convex && o.Strategy != StrategyCoordinateDescent {
		out.x, out.f, out.conv, iters = projectedGradient(ctx, p, pr, start, o)
		telemetry.SolverPGDIterations.Add(uint64(iters))
	} else {
		out.x, out.f, out.conv, iters = coordinateDescent(ctx, p, pr, start, o)
		telemetry.SolverCDIterations.Add(uint64(iters))
		if o.Strategy == StrategyCoordinateDescent {
			return out
		}
	}
	// Polish with direct search from the local-search endpoint.
	x2, f2, nmIters := nelderMead(ctx, p, pr, out.x, o)
	telemetry.SolverNMIterations.Add(uint64(nmIters))
	if f2 < out.f {
		out.x, out.f = x2, f2
	}
	return out
}

// folder replays the historical sequential selection (strict improvement,
// first-come ties) over per-start outcomes and decides the early exits:
// the convex single-start exit and the warm-start adaptive cutoff. It
// also says how many starts may run before the next decision (span), so
// scheduling follows the same rules as selection.
type folder struct {
	o    Options
	warm bool // seeds[0] is an injected warm start
	best Result
	// warmOut holds start 0's outcome while the cutoff is undecided.
	warmOut startOutcome
}

func newFolder(o Options, warm bool) *folder {
	return &folder{o: o, warm: warm, best: Result{F: math.Inf(1)}}
}

// fold merges start si's outcome into the running best and reports
// whether to stop issuing starts.
func (fd *folder) fold(out startOutcome, si int) bool {
	if out.f < fd.best.F {
		fd.best = Result{X: out.x, F: out.f, Converged: out.conv}
	}
	fd.best.Starts = si + 1
	if fd.o.Convex && out.conv {
		return true
	}
	if fd.warm && fd.o.WarmTol > 0 {
		switch si {
		case 0:
			fd.warmOut = out
		case 1:
			// Adaptive cutoff: the warm search converged and matched or
			// beat the strongest cold seed's full search within WarmTol,
			// so the neighbor's basin has proven itself and the remaining
			// starts are skipped.
			if fd.warmOut.conv && fd.warmOut.f <= out.f+fd.o.WarmTol*math.Max(math.Abs(out.f), 1e-12) {
				fd.best.WarmCut = true
				return true
			}
		}
	}
	return false
}

// span is how many starts from si on may run before a fold can end the
// solve, so that no start runs whose outcome the fold would discard: one
// for a convex solve (any converged start ends it), the rest of the warm
// pair while the warm cutoff is undecided, and all remaining seeds
// otherwise (nothing else ends a non-convex solve early).
func (fd *folder) span(si int) int {
	switch {
	case fd.o.Convex:
		return 1
	case fd.warm && fd.o.WarmTol > 0 && si < 2:
		return 2 - si
	}
	return math.MaxInt
}

// runStarts runs one local search per seed on up to o.Workers goroutines,
// the calling one included (it projects with pr; the others build their
// own projector), and returns the outcomes in seed order. Every worker
// has returned by the time runStarts does, so callers are free to
// repurpose the objective closure. A canceled context fails the batch.
func runStarts(ctx context.Context, p Problem, pr *projector, seeds [][]float64, o Options) ([]startOutcome, error) {
	outs := make([]startOutcome, len(seeds))
	var next atomic.Int64
	work := func(pr *projector) {
		for ctx.Err() == nil {
			si := int(next.Add(1) - 1)
			if si >= len(seeds) {
				return
			}
			outs[si] = runStart(ctx, p, pr, seeds[si], o)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(o.Workers, len(seeds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(newProjector(p.Cons))
		}()
	}
	work(pr)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("opt: solve canceled: %w", err)
	}
	return outs, nil
}

// rngPool recycles the seeders' PRNGs. Seed resets a rand.Rand to exactly
// the state of rand.New(rand.NewSource(seed)), so a recycled generator
// draws the same sequence, and a solve skips allocating the source's
// ~5 KB state.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// seeder builds the deterministic feasible starting points one at a time,
// in a fixed order: the optional projected warm start, then the projected
// center of the box/budget, projected per-variable emphasis points, a
// geometric-decay point, and seeded-random interior points. A candidate
// whose projection is infeasible or prices at +Inf is skipped. At most
// limit seeds are yielded: Starts + N, plus one for a kept warm start, so
// the cold seeds — and the PRNG draws producing them — are exactly those
// of the equivalent cold solve. A seed is built only when a start needs
// it, and the PRNG is taken from rngPool and seeded only when the first
// random candidate is; each seed depends on (p, o) alone, never on when
// it is asked for. Every seed is projected with pr.
type seeder struct {
	p       Problem
	pr      *projector
	seed    int64
	scale   float64
	limit   int
	warm    bool      // the first seed is the kept warm start
	head    []float64 // the warm seed until it is yielded
	raw     []float64 // candidate scratch; projection only reads it
	k       int       // next candidate: 0 equal split, 1..N emphasis, N+1 geometric, then random
	yielded int       // seeds yielded so far
	rng     *rand.Rand
	dry     bool // the safety valve fired: no further random candidates
}

func newSeeder(p Problem, pr *projector, o Options) *seeder {
	c := p.Cons
	// Estimate a characteristic scale from bounds or budget rows.
	scale := 1.0
	for i := 0; i < p.N; i++ {
		if !math.IsInf(c.Upper(i), 1) && c.Upper(i) > 0 {
			scale = math.Max(scale, c.Upper(i))
		}
	}
	for i, a := range c.eqA {
		pos := 0.0
		for _, v := range a {
			if v > 0 {
				pos += v
			}
		}
		if pos > 0 && c.eqB[i] > 0 {
			scale = math.Max(scale, c.eqB[i]/pos)
		}
	}
	for i, a := range c.ineqA {
		pos := 0.0
		for _, v := range a {
			if v > 0 {
				pos += v
			}
		}
		if pos > 0 && c.ineqB[i] > 0 {
			scale = math.Max(scale, c.ineqB[i]/pos)
		}
	}
	s := &seeder{p: p, pr: pr, seed: o.Seed, scale: scale, limit: o.Starts + p.N, raw: make([]float64, p.N)}
	// Warm start first: an infeasible or non-finite warm point is simply
	// dropped, falling back to the regular multistart.
	if len(o.WarmStart) > 0 {
		if s.head = s.admit(o.WarmStart); s.head != nil {
			s.warm = true
			s.limit++
		}
	}
	return s
}

// take returns up to k further seeds, fewer when the seeds run out.
func (s *seeder) take(k int) [][]float64 {
	var seeds [][]float64
	for len(seeds) < k {
		x := s.next()
		if x == nil {
			break
		}
		seeds = append(seeds, x)
	}
	return seeds
}

// next returns the next seed, or nil once limit seeds were yielded or the
// candidates ran out.
func (s *seeder) next() []float64 {
	if s.head != nil {
		x := s.head
		s.head = nil
		s.yielded++
		return x
	}
	for s.yielded < s.limit {
		raw := s.candidate()
		if raw == nil {
			return nil
		}
		if x := s.admit(raw); x != nil {
			s.yielded++
			return x
		}
	}
	return nil
}

// candidate writes the next raw candidate into s.raw and returns it, or
// nil when no candidates are left.
func (s *seeder) candidate() []float64 {
	n, raw := s.p.N, s.raw
	k := s.k
	s.k++
	switch {
	case k == 0: // equal split
		for i := range raw {
			raw[i] = s.scale / float64(n)
		}
	case k <= n: // emphasis on variable k-1
		for i := range raw {
			raw[i] = s.scale / float64(4*n)
		}
		raw[k-1] = s.scale / 2
	case k == n+1: // geometric decay (inner dims carry more traffic in LIBRA problems)
		v := s.scale / 2
		for i := range raw {
			raw[i] = v
			v /= 2
		}
	case s.dry:
		return nil
	default: // seeded random interior point
		if s.rng == nil {
			s.rng = rngPool.Get().(*rand.Rand)
			s.rng.Seed(s.seed)
		}
		for i := range raw {
			raw[i] = s.rng.Float64() * s.scale
		}
		s.dry = s.rng.Intn(1000) == 999 // safety valve against infeasible models
	}
	return raw
}

// admit projects raw and returns the seed, or nil when the projection is
// infeasible or prices at +Inf.
func (s *seeder) admit(raw []float64) []float64 {
	x := clone(s.pr.project(raw))
	if !s.p.Cons.Feasible(x, 1e-6) || math.IsInf(s.p.Objective(x), 1) {
		return nil
	}
	return x
}

// release returns the PRNG, if one was taken, to rngPool.
func (s *seeder) release() {
	if s.rng != nil {
		rngPool.Put(s.rng)
		s.rng = nil
	}
}

// numGradInto computes a central-difference gradient into g, using xp/xm
// as perturbation scratch (each restored to x after its component), so a
// gradient-heavy local search performs zero allocations per gradient.
//
//libra:hotpath
func numGradInto(g []float64, f func([]float64) float64, x, xp, xm []float64) {
	copy(xp, x)
	copy(xm, x)
	for i := range x {
		h := 1e-6 * math.Max(1, math.Abs(x[i]))
		xp[i] += h
		xm[i] -= h
		fp, fm := f(xp), f(xm)
		if math.IsInf(fp, 1) || math.IsInf(fm, 1) {
			// One-sided fallback at feasibility edges.
			f0 := f(x)
			if !math.IsInf(fp, 1) {
				g[i] = (fp - f0) / h
			} else if !math.IsInf(fm, 1) {
				g[i] = (f0 - fm) / h
			} else {
				g[i] = 0
			}
		} else {
			g[i] = (fp - fm) / (2 * h)
		}
		xp[i] = x[i]
		xm[i] = x[i]
	}
}

// projectedGradient runs monotone projected gradient descent with
// backtracking line search from a feasible start, projecting with pr.
// iters reports how many descent iterations executed, for the caller's
// telemetry.
//
//libra:hotpath
func projectedGradient(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (x []float64, f float64, converged bool, iters int) {
	n := len(start)
	// The candidate and the finite-difference gradient's buffers share
	// one allocation.
	scratch := make([]float64, 4*n)
	cand, g := scratch[:n:n], scratch[n:2*n:2*n]
	xp, xm := scratch[2*n:3*n:3*n], scratch[3*n:]
	x = clone(start)
	f = p.Objective(x)
	step := 1.0
	stall := 0
	for iter := 0; iter < o.MaxIters; iter++ {
		iters = iter + 1
		if ctx.Err() != nil {
			return x, f, false, iters
		}
		numGradInto(g, p.Objective, x, xp, xm)
		gn := norm2(g)
		if gn == 0 {
			return x, f, true, iters
		}
		// Scale the step to the current point magnitude.
		t := step * math.Max(norm2(x), 1) / gn
		improved := false
		for try := 0; try < 40; try++ {
			copy(cand, x)
			axpy(-t, g, cand)
			proj := pr.project(cand)
			fc := p.Objective(proj)
			if fc < f-1e-15*math.Abs(f) {
				copy(x, proj)
				f = fc
				improved = true
				step = math.Min(step*1.3, 4)
				break
			}
			t /= 2
		}
		if !improved {
			step = math.Max(step/4, 1e-6)
			stall++
			if stall >= 3 {
				return x, f, true, iters
			}
			continue
		}
		stall = 0
	}
	return x, f, false, iters
}

// nelderMead polishes a point with a penalized Nelder-Mead direct search;
// constraint violations are penalized quadratically, and the returned
// point is re-projected into the feasible set with pr. iters reports how
// many simplex iterations executed, for the caller's telemetry.
//
//libra:hotpath
func nelderMead(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (_ []float64, _ float64, iters int) {
	n := p.N
	mu := 1e6 * math.Max(1, math.Abs(p.Objective(start)))
	pen := func(x []float64) float64 {
		v := p.Cons.Violation(x)
		f := p.Objective(x)
		if math.IsInf(f, 1) {
			return 1e300 + mu*v
		}
		return f + mu*v*v
	}
	// The simplex vertices, their penalized values, and the per-iteration
	// scratch — the centroid, a difference direction, and one buffer per
	// candidate move — share one allocation. Accepted candidates swap
	// buffers with the worst vertex instead of allocating.
	buf := make([]float64, (n+6)*n+n+1)
	fs := buf[: n+1 : n+1]
	buf = buf[n+1:]
	vec := func() []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	// Initial simplex around start.
	simplex := make([][]float64, n+1)
	simplex[0] = vec()
	copy(simplex[0], start)
	for i := 1; i <= n; i++ {
		s := vec()
		copy(s, start)
		h := 0.05 * math.Max(math.Abs(s[i-1]), 1)
		s[i-1] += h
		simplex[i] = s
	}
	for i := range simplex {
		fs[i] = pen(simplex[i])
	}
	const (
		alpha = 1.0
		gamma = 2.0
		rho   = 0.5
		sigma = 0.5
	)
	order := func() {
		for i := 1; i < len(simplex); i++ {
			for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
				fs[j], fs[j-1] = fs[j-1], fs[j]
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
	}
	cen, dif, refl, expd, con := vec(), vec(), vec(), vec(), vec()
	for iter := 0; iter < 400*n; iter++ {
		iters = iter + 1
		if ctx.Err() != nil {
			break
		}
		order()
		if math.Abs(fs[n]-fs[0]) <= o.Tol*(math.Abs(fs[0])+1e-12) {
			break
		}
		// Centroid of all but worst.
		for j := range cen {
			cen[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += simplex[i][j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		for j := range dif {
			dif[j] = cen[j] - simplex[n][j]
		}
		copy(refl, cen)
		axpy(alpha, dif, refl)
		fr := pen(refl)
		switch {
		case fr < fs[0]:
			copy(expd, cen)
			axpy(gamma, dif, expd)
			if fe := pen(expd); fe < fr {
				simplex[n], expd = expd, simplex[n]
				fs[n] = fe
			} else {
				simplex[n], refl = refl, simplex[n]
				fs[n] = fr
			}
		case fr < fs[n-1]:
			simplex[n], refl = refl, simplex[n]
			fs[n] = fr
		default:
			for j := range dif {
				dif[j] = simplex[n][j] - cen[j]
			}
			copy(con, cen)
			axpy(rho, dif, con)
			if fc := pen(con); fc < fs[n] {
				simplex[n], con = con, simplex[n]
				fs[n] = fc
			} else {
				for i := 1; i <= n; i++ {
					for j := range dif {
						dif[j] = simplex[i][j] - simplex[0][j]
					}
					copy(simplex[i], simplex[0])
					axpy(sigma, dif, simplex[i])
					fs[i] = pen(simplex[i])
				}
			}
		}
	}
	order()
	best := clone(pr.project(simplex[0]))
	fb := p.Objective(best)
	if math.IsInf(fb, 1) {
		return clone(start), p.Objective(start), iters
	}
	return best, fb, iters
}
