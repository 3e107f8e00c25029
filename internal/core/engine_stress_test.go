package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"libra/internal/topology"
)

// stressSpec builds a cheap-but-real optimization instance; seed varies
// the solver seed so distinct specs fingerprint (and cache) separately.
func stressSpec(seed int64) *ProblemSpec {
	return &ProblemSpec{
		Topology:   "RI(2)_RI(2)",
		BudgetGBps: 100,
		Workloads: []WorkloadSpec{{Transformer: &TransformerSpec{
			Name: "tiny", NumLayers: 2, Hidden: 64, SeqLen: 32, TP: 2, Minibatch: 4,
		}}},
		Solver: &SolverSpec{Starts: 1, MaxIters: 40, Seed: seed},
	}
}

// TestEngineStressMixedConcurrent hammers one engine with concurrent
// mixed Optimize / Evaluate / Sweep / Do traffic over a small set of
// shared fingerprints and checks the accounting invariants the service
// layer documents:
//
//   - single-flight: each distinct key is solved exactly once (Misses ==
//     distinct keys; everything else is a cache hit or a joined flight);
//   - cache coherence: every answer for a key is identical;
//   - counters balance: Hits + Misses never exceed total calls, nothing
//     stays in flight, and the cache holds exactly the distinct keys.
//
// Run under -race (CI does), this is also the data-race gate for the
// generic Do machinery.
func TestEngineStressMixedConcurrent(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4, CacheSize: 1024})
	defer e.Close()
	ctx := context.Background()

	const (
		distinctSpecs = 3
		goroutines    = 12
		iters         = 8
	)
	specs := make([]*ProblemSpec, distinctSpecs)
	for i := range specs {
		specs[i] = stressSpec(int64(i + 1))
	}
	bws := []topology.BWConfig{{60, 40}, {50, 50}}

	// Warm nothing: the first wave races cold on purpose.
	var mu sync.Mutex
	answers := map[string][]any{}
	record := func(key string, v any) {
		mu.Lock()
		defer mu.Unlock()
		answers[key] = append(answers[key], v)
	}

	var calls int64
	var callsMu sync.Mutex
	count := func(n int) {
		callsMu.Lock()
		calls += int64(n)
		callsMu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				spec := specs[(g+it)%distinctSpecs]
				switch (g + it) % 4 {
				case 0:
					r, err := e.Optimize(ctx, spec)
					if err != nil {
						t.Errorf("optimize: %v", err)
						return
					}
					record("optimize|"+r.Fingerprint, r.Result)
					count(1)
				case 1:
					bw := bws[(g+it)%len(bws)]
					r, err := e.Evaluate(ctx, spec, bw)
					if err != nil {
						t.Errorf("evaluate: %v", err)
						return
					}
					record(fmt.Sprintf("evaluate|%s|%v", r.Fingerprint, bw), r.Result)
					count(1)
				case 2:
					// Sweep fans out to Optimize under the hood and shares
					// its fingerprints.
					pts, err := e.Sweep(ctx, spec, SweepRequest{Budgets: []float64{100, 120}})
					if err != nil {
						t.Errorf("sweep: %v", err)
						return
					}
					for _, p := range pts {
						if p.Error != "" {
							t.Errorf("sweep point: %v", p.Error)
							return
						}
						record("optimize|"+p.Fingerprint, p.Result)
					}
					count(len(pts))
				case 3:
					// Generic Do traffic interleaved on its own key space.
					k := fmt.Sprintf("stress|%d", (g+it)%distinctSpecs)
					v, _, err := e.DoCodec(ctx, k, nil, func(context.Context) (any, error) {
						return k + "!", nil
					})
					if err != nil {
						t.Errorf("do: %v", err)
						return
					}
					record(k, v)
					count(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every key must have exactly one distinct answer.
	for key, vals := range answers {
		for _, v := range vals[1:] {
			if !reflect.DeepEqual(v, vals[0]) {
				t.Fatalf("key %s returned diverging answers", key)
			}
		}
	}

	stats := e.Stats()
	distinctKeys := len(answers)
	if stats.Misses != uint64(distinctKeys) {
		t.Fatalf("misses %d != distinct keys %d: duplicate solves slipped past single-flight (or work was lost)",
			stats.Misses, distinctKeys)
	}
	if stats.CacheEntries != distinctKeys {
		t.Fatalf("cache holds %d entries, want %d", stats.CacheEntries, distinctKeys)
	}
	if stats.InFlight != 0 {
		t.Fatalf("%d flights leaked", stats.InFlight)
	}
	if total := stats.Hits + stats.Misses; total > uint64(calls) {
		t.Fatalf("hits %d + misses %d exceed %d calls", stats.Hits, stats.Misses, calls)
	}
	// With far more calls than keys, the cache must be doing real work.
	if stats.Hits == 0 {
		t.Fatal("stress run produced zero cache hits")
	}
}
