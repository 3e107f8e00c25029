package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"libra/internal/core"
)

// payload is the value type the stress computations persist.
type payload struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// TestStoreEngineStress (run under -race) hammers one engine + store
// pair with concurrent mixed-kind DoCodec traffic over shared keys while
// compactions run in the background. The invariant: every key, validate
// keys included, is computed exactly once, no matter how the memory LRU
// (deliberately undersized here), the disk tier, and single-flight
// interleave — a duplicate solve means a tier raced past the dedup.
func TestStoreEngineStress(t *testing.T) {
	st := openTest(t, t.TempDir(), Config{CompactBytes: -1}) // compaction driven explicitly below
	// CacheSize 4 over 8 hot keys + churn: most lookups miss memory and
	// must be answered by disk or single-flight, never recomputed.
	engine := core.NewEngine(core.EngineConfig{Workers: 4, CacheSize: 4, Store: st})
	defer engine.Close()

	codec := core.JSONCodec[payload]()
	const hotKeys, validateKeys = 8, 3
	var computes [hotKeys]atomic.Int64
	var validateComputes [validateKeys]atomic.Int64

	ctx := context.Background()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Background churn: compactions racing the request traffic.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (w + i) % hotKeys
				key := fmt.Sprintf("optimize|stress-%d", n)
				v, _, err := engine.DoCodec(ctx, key, codec, func(context.Context) (any, error) {
					computes[n].Add(1)
					return payload{Key: key, N: n}, nil
				})
				if err != nil {
					t.Errorf("do %s: %v", key, err)
					return
				}
				if p := v.(payload); p.N != n || p.Key != key {
					t.Errorf("key %s answered with %+v", key, p)
					return
				}
				// Interleave validate traffic so a second kind contends
				// on the same file and index.
				if i%5 == 0 {
					v := i % validateKeys
					vkey := fmt.Sprintf("validate|stress-%d", v)
					_, _, err := engine.DoCodec(ctx, vkey, codec, func(context.Context) (any, error) {
						validateComputes[v].Add(1)
						return payload{Key: vkey}, nil
					})
					if err != nil {
						t.Errorf("do %s: %v", vkey, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	for n := range computes {
		if got := computes[n].Load(); got != 1 {
			t.Errorf("optimize key %d computed %d times, want exactly 1", n, got)
		}
	}
	for v := range validateComputes {
		if got := validateComputes[v].Load(); got != 1 {
			t.Errorf("validate key %d computed %d times, want exactly 1", v, got)
		}
	}
	ds := st.Stats()
	if ds.Hits == 0 {
		t.Error("stress run never hit the disk tier (LRU too large for the test to mean anything)")
	}
	es := engine.Stats()
	if es.Disk == nil || es.Disk.Hits != ds.Hits {
		t.Errorf("EngineStats.Disk = %+v, store stats %+v", es.Disk, ds)
	}
}
