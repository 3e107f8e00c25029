package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeStore is an in-memory ResultStore that records traffic, so these
// tests pin the engine's tiering contract without touching disk.
type fakeStore struct {
	mu      sync.Mutex
	data    map[string][]byte
	elapsed map[string]float64
	gets    atomic.Int64
	puts    atomic.Int64
	putErr  error
	// blockGet, when non-nil, stalls every Get until closed — for tests
	// that need a flight held open at the disk tier.
	blockGet chan struct{}
}

func newFakeStore() *fakeStore {
	return &fakeStore{data: map[string][]byte{}, elapsed: map[string]float64{}}
}

func (f *fakeStore) Get(kind, key string) ([]byte, float64, bool) {
	f.gets.Add(1)
	if f.blockGet != nil {
		<-f.blockGet
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.data[key]
	return d, f.elapsed[key], ok
}

func (f *fakeStore) Put(kind, key string, data []byte, elapsedMS float64) error {
	f.puts.Add(1)
	if f.putErr != nil {
		return f.putErr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data[key] = data
	f.elapsed[key] = elapsedMS
	return nil
}

func (f *fakeStore) Stats() DiskStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return DiskStats{Entries: len(f.data)}
}

type tierVal struct {
	S string `json:"s"`
}

var tierCodec = JSONCodec[tierVal]()

// TestTierMissComputePut: a double miss computes once and spills the
// encoded value to the store under the key's kind.
func TestTierMissComputePut(t *testing.T) {
	fs := newFakeStore()
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	var computes atomic.Int64
	v, cached, err := e.DoCodec(context.Background(), "optimize|k1", tierCodec, func(context.Context) (any, error) {
		computes.Add(1)
		return tierVal{S: "fresh"}, nil
	})
	if err != nil || cached || v.(tierVal).S != "fresh" {
		t.Fatalf("got %v cached=%v err=%v", v, cached, err)
	}
	if computes.Load() != 1 || fs.puts.Load() != 1 {
		t.Fatalf("computes %d puts %d", computes.Load(), fs.puts.Load())
	}
	if string(fs.data[AnswerEpoch+"optimize|k1"]) != `{"s":"fresh"}` {
		t.Fatalf("spilled %q", fs.data[AnswerEpoch+"optimize|k1"])
	}
}

// TestTierDiskHit: an LRU miss answered by the store skips the compute,
// reports cached=true with the original elapsed time, and repopulates
// the memory tier (the next hit never reaches the store).
func TestTierDiskHit(t *testing.T) {
	fs := newFakeStore()
	fs.data[AnswerEpoch+"optimize|warm"] = []byte(`{"s":"from-disk"}`)
	fs.elapsed[AnswerEpoch+"optimize|warm"] = 250
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	compute := func(context.Context) (any, error) {
		t.Fatal("disk hit must not compute")
		return nil, nil
	}
	res, cached, err := e.doShared(context.Background(), "optimize|warm", tierCodec, compute)
	if err != nil || !cached || res.value.(tierVal).S != "from-disk" {
		t.Fatalf("got %v cached=%v err=%v", res.value, cached, err)
	}
	if res.elapsedMS != 250 {
		t.Fatalf("elapsed %v, want the stored 250 ms", res.elapsedMS)
	}
	if fs.puts.Load() != 0 {
		t.Fatal("a disk hit must not be re-spilled")
	}
	getsAfterFirst := fs.gets.Load()
	// Second request: memory LRU answers; the store must not be consulted.
	if _, cached, err := e.DoCodec(context.Background(), "optimize|warm", tierCodec, compute); err != nil || !cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	if fs.gets.Load() != getsAfterFirst {
		t.Fatal("memory hit leaked through to the store")
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestTierCorruptPayloadFallsBack: a store payload the codec rejects
// (schema drift) silently falls back to a fresh compute instead of
// surfacing a decode error.
func TestTierCorruptPayloadFallsBack(t *testing.T) {
	fs := newFakeStore()
	fs.data[AnswerEpoch+"optimize|drift"] = []byte(`{"unknown_field":1}`)
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	var computes atomic.Int64
	v, cached, err := e.DoCodec(context.Background(), "optimize|drift", tierCodec, func(context.Context) (any, error) {
		computes.Add(1)
		return tierVal{S: "recomputed"}, nil
	})
	if err != nil || cached || v.(tierVal).S != "recomputed" {
		t.Fatalf("got %v cached=%v err=%v", v, cached, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computes %d", computes.Load())
	}
	if string(fs.data[AnswerEpoch+"optimize|drift"]) != `{"s":"recomputed"}` {
		t.Fatalf("fresh result must overwrite the corrupt payload, have %q", fs.data[AnswerEpoch+"optimize|drift"])
	}
}

// TestTierSingleFlightOneDiskRead: N concurrent requests for one cold
// key share a single flight and therefore a single store lookup. The
// store's Get is held open until every other request has joined the
// flight, so the coalescing window is deterministic.
func TestTierSingleFlightOneDiskRead(t *testing.T) {
	fs := newFakeStore()
	fs.data[AnswerEpoch+"optimize|shared"] = []byte(`{"s":"disk"}`)
	fs.blockGet = make(chan struct{})
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: -1, Store: fs})
	defer e.Close()
	var wg sync.WaitGroup
	const n = 8
	errs := make([]error, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = e.DoCodec(context.Background(), "optimize|shared", tierCodec, func(context.Context) (any, error) {
				t.Error("must be served from disk")
				return nil, nil
			})
		}(i)
	}
	// Hold the disk read open until the other n-1 requests have joined
	// the flight, then release it to answer everyone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := e.Stats()
		if s.Coalesces == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", s.Coalesces, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(fs.blockGet)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if vals[i].(tierVal).S != "disk" {
			t.Fatalf("request %d answered %v", i, vals[i])
		}
	}
	if got := fs.gets.Load(); got != 1 {
		t.Fatalf("store reads %d for %d coalesced requests, want exactly 1", got, n)
	}
}

// TestTierNilCodecMemoryOnly: DoCodec with a nil codec never touches the store.
func TestTierNilCodecMemoryOnly(t *testing.T) {
	fs := newFakeStore()
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	if _, _, err := e.DoCodec(context.Background(), "other|plain", nil, func(context.Context) (any, error) {
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	if fs.gets.Load() != 0 || fs.puts.Load() != 0 {
		t.Fatalf("codec-less DoCodec reached the store (gets %d puts %d)", fs.gets.Load(), fs.puts.Load())
	}
}

// TestTierPutErrorNonFatal: a failing store write must not fail the
// computation — the disk tier is an accelerator, not a dependency.
func TestTierPutErrorNonFatal(t *testing.T) {
	fs := newFakeStore()
	fs.putErr = errors.New("disk full")
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	v, _, err := e.DoCodec(context.Background(), "optimize|k", tierCodec, func(context.Context) (any, error) {
		return tierVal{S: "ok"}, nil
	})
	if err != nil || v.(tierVal).S != "ok" {
		t.Fatalf("got %v err=%v", v, err)
	}
}

// TestTierErrorNotSpilled: failed computations are never persisted.
func TestTierErrorNotSpilled(t *testing.T) {
	fs := newFakeStore()
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e.Close()
	wantErr := errors.New("solver blew up")
	_, _, err := e.DoCodec(context.Background(), "optimize|boom", tierCodec, func(context.Context) (any, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if fs.puts.Load() != 0 {
		t.Fatal("errored compute must not be spilled")
	}
}

// TestTierOptimizeRoundTrip: the typed Optimize path round-trips through
// the store — a second engine sharing the store (a "restarted server")
// answers without solving and the answers are identical.
func TestTierOptimizeRoundTrip(t *testing.T) {
	fs := newFakeStore()
	spec := &ProblemSpec{Topology: "RI(4)_SW(8)", BudgetGBps: 200,
		Workloads: []WorkloadSpec{{Preset: "DLRM"}}}

	e1 := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	first, err := e1.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if fs.puts.Load() != 1 {
		t.Fatalf("puts %d", fs.puts.Load())
	}

	e2 := NewEngine(EngineConfig{Workers: 2, CacheSize: 8, Store: fs})
	defer e2.Close()
	second, err := e2.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("restarted engine must answer from the shared store")
	}
	if fmt.Sprintf("%v", second.Result.BW) != fmt.Sprintf("%v", first.Result.BW) ||
		second.Result.WeightedTime != first.Result.WeightedTime ||
		second.Result.Cost != first.Result.Cost {
		t.Fatalf("disk round-trip changed the result:\n  first  %+v\n  second %+v", first.Result, second.Result)
	}
	if second.ElapsedMS != first.ElapsedMS {
		t.Fatalf("elapsed metadata lost: %v vs %v", second.ElapsedMS, first.ElapsedMS)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints diverged")
	}
	if s := e2.Stats(); s.Disk == nil || s.Disk.Entries != 1 {
		t.Fatalf("EngineStats.Disk = %+v", s.Disk)
	}
}
