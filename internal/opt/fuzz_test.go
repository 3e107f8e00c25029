package opt

import (
	"math"
	"testing"
)

// FuzzOptionsValidate drives Options.Validate with arbitrary field values:
// it must never panic, must reject every malformed warm-start vector
// (wrong length, NaN/±Inf entries) and every negative count, and whatever
// it accepts must already be in validated form — the safety contract the
// spec layer relies on before handing warm state to the solver.
func FuzzOptionsValidate(f *testing.F) {
	f.Add(0, 0, 0, int64(0), 3, []byte{})
	f.Add(600, 8, 4, int64(1), 4, []byte{1, 2, 3, 4})
	f.Add(-1, 0, 0, int64(0), 2, []byte{})
	f.Add(0, -3, 0, int64(0), 2, []byte{})
	f.Add(0, 0, -2, int64(0), 2, []byte{})
	f.Add(0, 0, 0, int64(0), 3, []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0})                            // one entry for n=3
	f.Add(0, 0, 0, int64(0), 1, []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0})                            // -Inf entry
	f.Add(0, 0, 0, int64(0), 0, []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0}) // unknown dimension
	f.Add(0, 0, 0, int64(0), 2, []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0})                            // +Inf entry
	f.Add(0, 0, 0, int64(0), 1, []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0, 0})                      // NaN entry

	f.Fuzz(func(t *testing.T, maxIters, starts, workers int, seed int64, n int, warmBytes []byte) {
		// Decode the fuzzed bytes into a warm vector, 8 bytes per entry
		// big-endian — arbitrary bit patterns, including every NaN/Inf
		// encoding.
		var warm []float64
		for i := 0; i+8 <= len(warmBytes) && len(warm) < 64; i += 8 {
			bits := uint64(0)
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(warmBytes[i+j])
			}
			warm = append(warm, math.Float64frombits(bits))
		}
		o := Options{MaxIters: maxIters, Starts: starts, Workers: workers, Seed: seed, WarmStart: warm}
		err := o.Validate(n)

		wantErr := maxIters < 0 || starts < 0 || workers < 0
		if len(warm) > 0 {
			if n > 0 && len(warm) != n {
				wantErr = true
			}
			for _, v := range warm {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					wantErr = true
				}
			}
		}
		if wantErr && err == nil {
			t.Fatalf("Validate(%d) accepted malformed options %+v", n, o)
		}
		if !wantErr && err != nil {
			t.Fatalf("Validate(%d) rejected well-formed options %+v: %v", n, o, err)
		}
	})
}

// FuzzSeparableProject drives the exact breakpoint projection with
// arbitrary box + one-row sets. Each variable takes four bytes:
// coefficient (a small grid, so breakpoints tie), lower bound (0xff: −∞),
// upper-bound gap (0xff: +∞) and x0. The result must be feasible, of the
// KKT form, and at least as close to x0 as the reference; a set that is
// empty must stay on the general path and match its reference bit for
// bit.
func FuzzSeparableProject(f *testing.F) {
	f.Add(true, 10.0, []byte{16, 0, 255, 200, 16, 0, 255, 10, 16, 0, 255, 0})
	f.Add(false, 10.0, []byte{16, 0, 255, 200, 32, 255, 20, 10, 8, 4, 255, 0})
	f.Add(true, -500.0, []byte{16, 128, 10, 200, 16, 130, 10, 10})
	f.Add(false, 0.0, []byte{16, 128, 20, 128, 16, 128, 20, 128})
	f.Fuzz(func(t *testing.T, eq bool, b float64, raw []byte) {
		n := len(raw) / 4
		if n < 1 || n > 8 || math.IsNaN(b) || math.Abs(b) > 1e5 {
			return
		}
		c := NewConstraints(n)
		a, x0 := make([]float64, n), make([]float64, n)
		sumLo, sumHi := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := raw[4*i : 4*i+4]
			a[i] = 0.25 + float64(v[0]%64)/16
			lo, hi := math.Inf(-1), math.Inf(1)
			if v[1] != 0xff {
				lo = (float64(v[1]) - 128) / 2
			}
			if v[2] != 0xff {
				hi = math.Max(lo, -64) + float64(v[2])/2
			}
			c.SetLower(i, lo)
			c.SetUpper(i, hi)
			x0[i] = (float64(v[3]) - 128) * 2
			sumLo += a[i] * lo
			sumHi += a[i] * hi
		}
		if eq {
			c.AddEQ(a, b)
		} else {
			c.AddLE(a, b)
		}
		if sumLo <= b && (!eq || b <= sumHi) {
			checkSeparable(t, c, a, b, eq, x0)
			return
		}
		if newProjector(c).sep {
			t.Fatalf("empty set (a %v, b %v, eq %v) classified separable", a, b, eq)
		}
		if got, ref := Project(c, x0), referenceProject(c, x0); !sameBits(got, ref) {
			t.Fatalf("empty set: Project %v, reference %v", got, ref)
		}
	})
}
