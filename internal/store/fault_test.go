package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"libra/internal/core"
	"libra/internal/telemetry"
)

// TestCompactionFaultDegrades: a store whose every compaction fails
// still answers through the engine. A non-empty directory squats on the
// compaction tmp path, so creating the tmp fails (even as root) and
// Open cannot clear it. Each Put's record is appended and readable, the
// failed compaction is counted in PutErrors, and once the squatter is
// gone a fresh engine on the reopened store answers from disk without
// solving.
func TestCompactionFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	squatter := filepath.Join(dir, tmpName)
	if err := os.MkdirAll(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(squatter, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, CompactBytes: 1}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.ProblemSpec{Topology: "RI(4)_SW(8)", BudgetGBps: 200,
		Workloads: []core.WorkloadSpec{{Preset: "DLRM"}}}
	engine := core.NewEngine(core.EngineConfig{Workers: 1, CacheSize: 8, Store: st})
	first, err := engine.Optimize(context.Background(), spec)
	engine.Close()
	if err != nil {
		t.Fatalf("optimize over a failing store: %v", err)
	}
	ds := st.Stats()
	if ds.PutErrors < 1 || ds.Compactions != 0 {
		t.Fatalf("disk stats %+v, want a counted put error and no compaction", ds)
	}
	if _, _, ok := st.Get("optimize", core.AnswerEpoch+"optimize|"+first.Fingerprint); !ok {
		t.Fatal("the appended record must read back after its compaction failed")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.RemoveAll(squatter); err != nil {
		t.Fatal(err)
	}
	st = openTest(t, dir, cfg)
	engine = core.NewEngine(core.EngineConfig{Workers: 1, CacheSize: 8, Store: st})
	defer engine.Close()
	solves := telemetry.SolverSolves.Value()
	again, err := engine.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("reopened store must answer the spec from disk")
	}
	if d := telemetry.SolverSolves.Value() - solves; d != 0 {
		t.Fatalf("reopened store ran %d solves, want 0", d)
	}
}

// failingCodec encodes nothing: every Encode fails.
type failingCodec struct{}

func (failingCodec) Encode(any) ([]byte, error) { return nil, errors.New("encode refused") }
func (failingCodec) Decode([]byte) (any, error) { return nil, errors.New("nothing to decode") }

// TestEncodeFailureIsNotAPutError: a value the codec cannot encode still
// answers, is never written, and counts as no store put error — the
// libra_store_put_errors_total series moves exactly with the store's own
// DiskStats.PutErrors, which never saw a Put.
func TestEncodeFailureIsNotAPutError(t *testing.T) {
	st := openTest(t, t.TempDir(), Config{})
	engine := core.NewEngine(core.EngineConfig{Workers: 1, CacheSize: 8, Store: st})
	defer engine.Close()
	before := telemetry.StorePutErrors.Value()
	v, cached, err := engine.DoCodec(context.Background(), "optimize|unencodable", failingCodec{},
		func(context.Context) (any, error) { return 42, nil })
	if err != nil || cached || v != 42 {
		t.Fatalf("DoCodec = %v, cached %v, err %v; want a fresh 42", v, cached, err)
	}
	if st.Len() != 0 {
		t.Fatalf("store holds %d entries, want none", st.Len())
	}
	delta := telemetry.StorePutErrors.Value() - before
	if pe := st.Stats().PutErrors; delta != pe || pe != 0 {
		t.Fatalf("put-error metric moved by %d, store counted %d; want both 0", delta, pe)
	}
}
