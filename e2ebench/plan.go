package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/task"
)

// workloadDef fixes one workload's shape. Everything a run sends is drawn
// from the seed through makePlan; the definition only sets sizes.
type workloadDef struct {
	name string
	// perSecond is the request (or job) rate the request count is sized
	// by: a run sends perSecond × --seconds requests, so the same seed and
	// --seconds always send the identical list.
	perSecond float64
	// tailPct is the percentile behind latency_tail_ms: the highest of
	// p90/p95/p99 that leaves ≥10 samples beyond it at the request count.
	tailPct float64
	// loops is the number of closed-loop clients, one connection each.
	loops int
	// cacheDir starts the server with -cache-dir.
	cacheDir bool
	// restart fills the cache directory through a first server, stops it,
	// and measures a second server restarted on the directory.
	restart bool
}

var workloadDefs = []workloadDef{
	{name: "cold-solve", perSecond: 5.5, tailPct: 90, loops: 1, cacheDir: true},
	{name: "hot-sweeps", perSecond: 480, tailPct: 99, loops: 1},
	{name: "disk-restart", perSecond: 280, tailPct: 99, loops: 1, cacheDir: true, restart: true},
	{name: "study-jobs", perSecond: 100, tailPct: 99, loops: 2},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// op is one request of the fixed list, with what the gate expects back.
type op struct {
	path string
	body []byte
	// ifNoneMatch re-sends an earlier body's ETag; the answer must be 304.
	ifNoneMatch string
	// etag is the expected ETag: the task fingerprint computed locally.
	etag string
	// cells indexes plan.cells in response order (optimize: one cell;
	// sweep: the exploded grid). A frontier job has none.
	cells []int
	// job is set on study-jobs ops: the frontier request the job runs.
	job *jobInput
	// verify asks the gate to compare the answer bit for bit against the
	// in-process library answer (every op on the cache workloads, a
	// seeded share of the solve-heavy ones).
	verify bool
}

type jobInput struct {
	base *core.ProblemSpec
	req  frontier.Request
}

// cell is one optimize problem a response reports on.
type cell struct {
	spec *core.ProblemSpec
	fp   string // Problem.Fingerprint — the EngineResult fingerprint
}

// plan is everything one run sends, generated from the seed alone.
type plan struct {
	def     workloadDef
	seed    int64
	lruSize int // engine LRU entries (0 = server default)
	cells   []cell
	// fill is sent untimed before the measured phase: to the measured
	// server (hot-sweeps) or to a first server on the same cache
	// directory (disk-restart).
	fill []op
	// loops holds each closed-loop client's fixed request list.
	loops [][]op
}

func (p *plan) requests() int {
	n := 0
	for _, l := range p.loops {
		n += len(l)
	}
	return n
}

// makePlan generates a run's inputs. scale < 1 shrinks the request count
// and the cache working sets (self-tests and the traced run's layer
// probes); the full benchmark always runs at scale 1.
func makePlan(def workloadDef, seed int64, seconds float64, scale float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Ceil(def.perSecond * seconds * scale))
	if n < 2*def.loops {
		n = 2 * def.loops
	}
	p := &plan{def: def, seed: seed}
	var err error
	switch def.name {
	case "cold-solve":
		err = p.coldSolve(rng, n)
	case "hot-sweeps":
		err = p.hotSweeps(rng, n, scale)
	case "disk-restart":
		err = p.diskRestart(rng, n, scale)
	case "study-jobs":
		err = p.studyJobs(rng, n)
	default:
		err = fmt.Errorf("no generator for workload %q", def.name)
	}
	return p, err
}

// addCell registers a cell (the spec exactly as Engine.Sweep derives it)
// and returns its index.
func (p *plan) addCell(s *core.ProblemSpec) (int, error) {
	pr, err := s.Build()
	if err != nil {
		return 0, err
	}
	fp, err := pr.Fingerprint()
	if err != nil {
		return 0, err
	}
	p.cells = append(p.cells, cell{spec: s, fp: fp})
	return len(p.cells) - 1, nil
}

// coldSolve: POST /v1/optimize of perf-per-cost problems that are all new
// to the server — two Table III presets of similar solve cost, alternating,
// each with all three Table II transformers at seeded weights and a seeded
// budget. One request class, so p50 and the tail both fall inside it.
func (p *plan) coldSolve(rng *rand.Rand, n int) error {
	topos := []string{"3D-4K", "3D-1K"}
	ops := make([]op, n)
	check := rng.Intn(4)
	for i := range ops {
		s := &core.ProblemSpec{
			Topology: topos[i%2],
			Workloads: []core.WorkloadSpec{
				{Preset: "GPT-3", Weight: round3(0.5 + rng.Float64())},
				{Preset: "Turing-NLG", Weight: round3(0.5 + rng.Float64())},
				{Preset: "MSFT-1T", Weight: round3(0.5 + rng.Float64())},
			},
			BudgetGBps: round3(200 + 800*rng.Float64()),
			Objective:  "perf-per-cost",
		}
		idx, err := p.addCell(s)
		if err != nil {
			return err
		}
		body, err := json.Marshal(s)
		if err != nil {
			return err
		}
		etag, err := kindETag(task.KindOptimize, body)
		if err != nil {
			return err
		}
		ops[i] = op{path: "/v1/optimize", body: body, etag: etag, cells: []int{idx}, verify: i%4 == check}
	}
	p.loops = [][]op{ops}
	return nil
}

// sweepBase is one base spec of the cache workloads' sweep grids.
type sweepBase struct {
	spec    *core.ProblemSpec
	budgets []float64
	topos   []string
	// cell[t][b] indexes plan.cells.
	cell [][]int
}

// grid registers every topology × budget cell of a base, in the order
// Engine.Sweep explodes them.
func (p *plan) grid(b *sweepBase) error {
	b.cell = make([][]int, len(b.topos))
	for ti, t := range b.topos {
		b.cell[ti] = make([]int, len(b.budgets))
		for bi, budget := range b.budgets {
			s := b.spec.Clone()
			s.Topology = t
			s.BudgetGBps = budget
			idx, err := p.addCell(s)
			if err != nil {
				return err
			}
			b.cell[ti][bi] = idx
		}
	}
	return nil
}

// sweepOp builds a POST /v2/tasks sweep over the given topology and budget
// indexes of a base, spelled with the given variant.
func (p *plan) sweepOp(b *sweepBase, tis, bis []int, variant int) (op, error) {
	var topos []string
	var budgets []float64
	var cells []int
	for _, ti := range tis {
		topos = append(topos, b.topos[ti])
	}
	for _, bi := range bis {
		budgets = append(budgets, b.budgets[bi])
	}
	for _, ti := range tis {
		for _, bi := range bis {
			cells = append(cells, b.cell[ti][bi])
		}
	}
	body := spellSweep(b.spec, topos, budgets, variant)
	t, err := task.Parse(body)
	if err != nil {
		return op{}, fmt.Errorf("generated sweep does not parse: %w", err)
	}
	fp, err := t.Fingerprint()
	if err != nil {
		return op{}, err
	}
	if variant != 0 {
		// A re-spelling must name the same task as the canonical form.
		canon, err := task.Parse(spellSweep(b.spec, topos, budgets, 0))
		if err != nil {
			return op{}, err
		}
		if cfp, err := canon.Fingerprint(); err != nil || cfp != fp {
			return op{}, fmt.Errorf("spelling variant %d changes the task fingerprint", variant)
		}
	}
	return op{path: "/v2/tasks", body: body, etag: `"` + fp + `"`, cells: cells, verify: true}, nil
}

// hotSweeps: sweeps of 64 cells from a 400-cell working set (well under
// the 512-entry LRU), filled before timing. Templates are Zipf-popular and
// re-spelled on every send; one request in eight re-sends an earlier body
// with If-None-Match and must get a 304.
func (p *plan) hotSweeps(rng *rand.Rand, n int, scale float64) error {
	topos := []string{"2D-4K", "3D-1K", "3D-4K", "4D-2K"}
	presets := [][]string{{"GPT-3"}, {"Turing-NLG"}, {"MSFT-1T"}, {"GPT-3", "MSFT-1T"}, {"Turing-NLG", "MSFT-1T"}}
	nBudgets, perSweep := 20, 16
	if scale < 1 {
		presets, nBudgets, perSweep = presets[:2], 6, 4
	}
	var bases []*sweepBase
	for _, ws := range presets {
		s := &core.ProblemSpec{Topology: topos[0], BudgetGBps: 100, Solver: &core.SolverSpec{Starts: 2}}
		for _, w := range ws {
			s.Workloads = append(s.Workloads, core.WorkloadSpec{Preset: w})
		}
		b := &sweepBase{spec: s, topos: topos, budgets: seededBudgets(rng, nBudgets, 100, 25)}
		if err := p.grid(b); err != nil {
			return err
		}
		bases = append(bases, b)
	}
	allTopos := []int{0, 1, 2, 3}
	// Fill: each base's whole grid, canonically spelled.
	for _, b := range bases {
		fill, err := p.sweepOp(b, allTopos, seq(len(b.budgets)), 0)
		if err != nil {
			return err
		}
		p.fill = append(p.fill, fill)
	}
	type template struct {
		base *sweepBase
		bis  []int
	}
	templates := make([]template, 64)
	for i := range templates {
		b := bases[i%len(bases)]
		bis := rng.Perm(len(b.budgets))[:perSweep]
		sort.Ints(bis)
		templates[i] = template{base: b, bis: bis}
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(templates)-1))
	ops := make([]op, n)
	var sent []op // earlier 200 sends, candidates for a conditional re-send
	for i := range ops {
		if i%8 == 7 && len(sent) > 0 {
			prev := sent[rng.Intn(len(sent))]
			prev.ifNoneMatch = prev.etag
			prev.verify = false
			ops[i] = prev
			continue
		}
		t := templates[zipf.Uint64()]
		o, err := p.sweepOp(t.base, allTopos, t.bis, 1+rng.Intn(spellings))
		if err != nil {
			return err
		}
		ops[i] = o
		sent = append(sent, o)
	}
	p.loops = [][]op{ops}
	return nil
}

// diskRestart: a cache directory filled with 8× the LRU capacity in
// optimize cells (16 bases × 256 budgets), then sweeps of 64 cells drawn
// uniformly from the stored set, so about 7 cells in 8 miss the LRU and
// are read back from the store.
func (p *plan) diskRestart(rng *rand.Rand, n int, scale float64) error {
	nBases, perBase, perSweep, nTemplates := 16, 256, 64, 512
	if scale < 1 {
		nBases, perBase, perSweep, nTemplates = 4, 32, 8, 32
		p.lruSize = 16
	}
	presets := []string{"GPT-3", "Turing-NLG", "MSFT-1T"}
	var bases []*sweepBase
	for i := 0; i < nBases; i++ {
		s := &core.ProblemSpec{
			Topology:   "2D-4K",
			BudgetGBps: 100,
			Workloads:  []core.WorkloadSpec{{Preset: presets[i%len(presets)]}},
			MinDimBW:   round3(0.2 + 0.05*float64(i)),
			Solver:     &core.SolverSpec{Starts: 2},
		}
		b := &sweepBase{spec: s, topos: []string{"2D-4K"}, budgets: seededBudgets(rng, perBase, 100, 3)}
		if err := p.grid(b); err != nil {
			return err
		}
		bases = append(bases, b)
		fill, err := p.sweepOp(b, []int{0}, seq(perBase), 0)
		if err != nil {
			return err
		}
		p.fill = append(p.fill, fill)
	}
	templates := make([]op, nTemplates)
	for i := range templates {
		b := bases[rng.Intn(len(bases))]
		o, err := p.sweepOp(b, []int{0}, rng.Perm(perBase)[:perSweep], 0)
		if err != nil {
			return err
		}
		templates[i] = o
	}
	ops := make([]op, n)
	order := rng.Perm(nTemplates)
	for i := range ops {
		if i > 0 && i%nTemplates == 0 {
			order = rng.Perm(nTemplates)
		}
		ops[i] = templates[order[i%nTemplates]]
	}
	p.loops = [][]op{ops}
	return nil
}

// studyJobs: async frontier jobs of 16 budget points, each with a distinct
// base spec (objective perf), split over two closed loops. One in eight
// jobs is compared bit for bit against an in-process frontier.
func (p *plan) studyJobs(rng *rand.Rand, n int) error {
	topos := []string{"3D-1K", "3D-4K"}
	perLoop := (n + 1) / 2
	p.loops = make([][]op, 2)
	check := rng.Intn(8)
	for i := 0; i < 2*perLoop; i++ {
		base := &core.ProblemSpec{
			Topology:   topos[i%2],
			Workloads:  []core.WorkloadSpec{{Preset: "MSFT-1T"}},
			BudgetGBps: 100,
			MinDimBW:   round3(0.1 + 0.2*rng.Float64()),
			Objective:  "perf",
		}
		req := frontier.Request{
			BudgetMin:   round3(100 + 50*rng.Float64()),
			BudgetMax:   round3(900 + 100*rng.Float64()),
			BudgetSteps: 16,
		}
		payload, err := json.Marshal(task.FrontierSpec{Spec: base, Frontier: req})
		if err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{"kind": "frontier", "spec": json.RawMessage(payload)})
		if err != nil {
			return err
		}
		t, err := task.Parse(body)
		if err != nil {
			return err
		}
		fp, err := t.Fingerprint()
		if err != nil {
			return err
		}
		o := op{path: "/v2/jobs", body: body, etag: `"` + fp + `"`, job: &jobInput{base: base, req: req}, verify: i%8 == check}
		p.loops[i%2] = append(p.loops[i%2], o)
	}
	return nil
}

// kindETag is the ETag a /v1/<kind> endpoint answers with for a payload.
func kindETag(kind task.Kind, payload []byte) (string, error) {
	t, err := task.FromKindPayload(kind, payload)
	if err != nil {
		return "", err
	}
	fp, err := t.Fingerprint()
	if err != nil {
		return "", err
	}
	return `"` + fp + `"`, nil
}

// seededBudgets draws n distinct whole-number budgets: an ascending grid
// from lo with the given step, each jittered within its step.
func seededBudgets(rng *rand.Rand, n int, lo, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + step*float64(i) + math.Floor(rng.Float64()*step)
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// spellings is the number of non-canonical spelling variants spellSweep
// knows; variant 0 is the canonical json.Marshal form.
const spellings = 4

// spellSweep writes a sweep envelope. Variants re-spell the same task —
// objective aliases, explicit defaults, number formats, key order and
// whitespace — so the server must canonicalize to hit its cache. Every
// variant fingerprints identically (the generator checks by parsing).
func spellSweep(base *core.ProblemSpec, topos []string, budgets []float64, variant int) []byte {
	if variant == 0 {
		payload, _ := json.Marshal(task.SweepSpec{Spec: base, Sweep: core.SweepRequest{Topologies: topos, Budgets: budgets}})
		body, _ := json.Marshal(map[string]any{"kind": "sweep", "spec": json.RawMessage(payload)})
		return body
	}
	sep := []string{", ", ",", ",\n  ", " , "}[variant%4]
	num := func(v float64) string {
		switch variant {
		case 1:
			return strconv.FormatFloat(v, 'f', -1, 64)
		case 2:
			if v == math.Trunc(v) {
				return strconv.FormatFloat(v, 'f', 1, 64)
			}
			return strconv.FormatFloat(v, 'g', -1, 64)
		default:
			return strconv.FormatFloat(v, 'e', -1, 64)
		}
	}
	objective := []string{`"perf"`, `"perf"`, `"PerfOptBW"`, `"perfopt"`}[variant%4]
	var ws []string
	for _, w := range base.Workloads {
		ws = append(ws, fmt.Sprintf(`{"preset":%q}`, w.Preset))
	}
	fields := []string{
		`"topology":` + strconv.Quote(base.Topology),
		`"workloads":[` + strings.Join(ws, sep) + `]`,
		`"objective":` + objective,
		`"budget_gbps":` + num(base.BudgetGBps),
		fmt.Sprintf(`"solver":{"starts":%d}`, base.Solver.Starts),
	}
	if base.MinDimBW != 0 {
		fields = append(fields, `"min_dim_bw":`+num(base.MinDimBW))
	}
	if variant >= 2 {
		fields = append(fields, `"loop":"no-overlap"`, `"opt_policy":"actual"`)
	}
	if variant == 3 {
		for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
			fields[i], fields[j] = fields[j], fields[i]
		}
	}
	var tq, bq []string
	for _, t := range topos {
		tq = append(tq, strconv.Quote(t))
	}
	for _, b := range budgets {
		bq = append(bq, num(b))
	}
	sweep := `"budgets":[` + strings.Join(bq, sep) + `]` + sep + `"topologies":[` + strings.Join(tq, sep) + `]`
	return []byte(`{"spec":{"sweep":{` + sweep + `}` + sep + `"spec":{` + strings.Join(fields, sep) + `}}` + sep + `"kind":"sweep"}`)
}
