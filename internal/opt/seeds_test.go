package opt

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateSeeds = flag.Bool("update", false, "rewrite testdata/seeds.golden")

// seedCase is one multistart seed set pinned by testdata/seeds.golden.
type seedCase struct {
	name string
	p    Problem
	o    Options
}

// seedCases cover 3- and 4-variable problems, cold and warm, a seed set
// truncated at its limit before any random draw, a kept and a dropped
// warm start, candidates filtered for an infinite objective, and a model
// so hostile that the random phase ends on the safety valve.
func seedCases() []seedCase {
	p3 := perfPerCostProblem(3)
	// filtered4 prices x[3] > 30 at +Inf, so its emphasis seed on x[3]
	// and many random draws are dropped; the x[0] cap sets the scale.
	base4 := perfPerCostProblem(4)
	filtered4 := Problem{
		N: 4,
		Objective: func(x []float64) float64 {
			if x[3] > 30 {
				return math.Inf(1)
			}
			return base4.Objective(x)
		},
		Cons: NewConstraints(4).SumAtMost(100).SetAllLower(0.05).SetUpper(0, 60),
	}
	// valve3 is finite only for x[0] > 33.2, near the top of the random
	// draws' [0, 33.3) range: about one draw in 250 survives, so the
	// random phase stops on rng.Intn(1000) drawing 999, well short of
	// its limit.
	valve3 := Problem{
		N: 3,
		Objective: func(x []float64) float64 {
			if x[0] <= 33.2 {
				return math.Inf(1)
			}
			return p3.Objective(x)
		},
		Cons: p3.Cons,
	}
	return []seedCase{
		{"3var", p3, Options{Seed: 7}},
		{"3var-warm", p3, Options{Seed: 7, WarmStart: []float64{40, 30, 20}}},
		{"3var-truncated", p3, Options{Starts: 1}},
		{"3var-truncated-warm", p3, Options{Starts: 1, WarmStart: []float64{40, 30, 20}}},
		{"3var-valve", valve3, Options{Seed: 5, Starts: 50}},
		{"4var-filtered", filtered4, Options{Seed: 3, Starts: 12}},
		{"4var-filtered-warm", filtered4, Options{Seed: 3, Starts: 12, WarmStart: []float64{30, 30, 20, 20}}},
		{"4var-filtered-warm-dropped", filtered4, Options{Seed: 3, Starts: 12, WarmStart: []float64{10, 20, 30, 40}}},
	}
}

// drainSeeds returns every seed the solver would build for (p, o), in
// order, and whether the first is the kept warm start.
func drainSeeds(t *testing.T, p Problem, o Options) ([][]float64, bool) {
	t.Helper()
	o, err := o.withDefaults(p.N)
	if err != nil {
		t.Fatal(err)
	}
	sd := newSeeder(p, newProjector(p.Cons), o)
	defer sd.release()
	return sd.take(math.MaxInt), sd.warm
}

// renderSeeds prints every case's seeds at full precision ('g', -1
// round-trips a float64 exactly).
func renderSeeds(t *testing.T) []byte {
	var buf bytes.Buffer
	for _, c := range seedCases() {
		seeds, warm := drainSeeds(t, c.p, c.o)
		fmt.Fprintf(&buf, "case %s warm=%v seeds=%d\n", c.name, warm, len(seeds))
		for _, s := range seeds {
			for i, v := range s {
				if i > 0 {
					buf.WriteByte(' ')
				}
				buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// The lazy seeder must build bit for bit the seeds of the eager seed
// generator it replaced: testdata/seeds.golden was captured from that
// generator. Regenerate only on purpose with -update.
func TestSeederMatchesGolden(t *testing.T) {
	path := filepath.Join("testdata", "seeds.golden")
	got := renderSeeds(t)
	if *updateSeeds {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("seeds differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("seeds differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
