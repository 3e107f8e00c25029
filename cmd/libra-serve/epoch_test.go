package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"libra"
	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/store"
)

// epochValidateSpec is a small conformance matrix: one topology, one
// collective over both simulator paths, one training iteration.
const epochValidateSpec = `{"topologies":["RI(4)_SW(8)"],"collectives":["ar"],"workloads":["DLRM"],` +
	`"loops":["no-overlap"],"chunks":4,"npu_level_chunks":2}`

// storeServer serves a fresh engine over a store opened on dir.
func storeServer(t *testing.T, dir string) (*httptest.Server, *libra.Engine) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	engine := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: 8, Store: st})
	t.Cleanup(engine.Close)
	manager := jobs.NewManager(jobs.Config{Engine: engine, Capacity: 4})
	t.Cleanup(manager.Close)
	srv := httptest.NewServer(newMux(engine, manager, 1<<20, testLogger()))
	t.Cleanup(srv.Close)
	return srv, engine
}

// epochProbe is one answer a restarted server may find on disk: the
// engine's disk key for it (without the epoch), a stored payload the
// code would never compute, and a request whose answer tells the two
// apart.
type epochProbe struct {
	kind, key     string
	wrong         []byte
	fresh, served string
	// ask sends the request and reports whether the answer came from a
	// cache and, as a string, the part of it the stored payload moves.
	ask func(t *testing.T, base string) (cached bool, answer string)
}

func optimizeProbe(t *testing.T) epochProbe {
	spec, err := libra.ParseSpec([]byte(restartSpec(275)))
	if err != nil {
		t.Fatal(err)
	}
	memory := libra.NewEngine(libra.EngineConfig{Workers: 1, CacheSize: 8})
	defer memory.Close()
	fresh, err := memory.Optimize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wrong := fresh.Result
	wrong.BW = append(libra.BWConfig(nil), fresh.Result.BW...)
	wrong.BW[0]++
	wrongPayload, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	return epochProbe{
		kind: "optimize", key: "optimize|" + fresh.Fingerprint, wrong: wrongPayload,
		fresh: fresh.Result.BW.String(), served: wrong.BW.String(),
		ask: func(t *testing.T, base string) (bool, string) {
			resp, body := postJSON(t, base+"/v1/optimize", restartSpec(275))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got libra.EngineResult
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			return got.Cached, got.Result.BW.String()
		},
	}
}

// validateProbe runs epochValidateSpec once on a store and takes the
// first outcome it persisted: that scenario's key, and its outcome with
// the simulated time moved.
func validateProbe(t *testing.T) epochProbe {
	dir := t.TempDir()
	srv, _ := storeServer(t, dir)
	ask := func(t *testing.T, base string) (map[string]libra.ValidationScenario, []byte) {
		resp, body := postJSON(t, base+"/v1/validate", epochValidateSpec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var rep libra.ValidationReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		byID := map[string]libra.ValidationScenario{}
		for _, sc := range rep.Scenarios {
			byID[sc.ID] = sc
		}
		return byID, body
	}
	fresh, body := ask(t, srv.URL)
	data, err := os.ReadFile(filepath.Join(dir, "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := store.DecodeLog(data)
	if err != nil || len(recs) == 0 {
		t.Fatalf("validate persisted %d outcomes (err %v); report %s", len(recs), err, body)
	}
	key := strings.TrimPrefix(recs[0].Key, core.AnswerEpoch)
	id := strings.Split(key, "|")[1]
	sc, ok := fresh[id]
	if !ok {
		t.Fatalf("stored key %q names no scenario of the report", key)
	}
	var outcome map[string]any
	if err := json.Unmarshal(recs[0].Data, &outcome); err != nil {
		t.Fatal(err)
	}
	wrong := sc.SimulatedS * 2
	outcome["simulated"] = wrong
	wrongPayload, err := json.Marshal(outcome)
	if err != nil {
		t.Fatal(err)
	}
	format := func(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }
	return epochProbe{
		kind: "validate", key: key, wrong: wrongPayload,
		fresh: format(sc.SimulatedS), served: format(wrong),
		ask: func(t *testing.T, base string) (bool, string) {
			byID, body := ask(t, base)
			sc, ok := byID[id]
			if !ok {
				t.Fatalf("scenario %s missing from %s", id, body)
			}
			return sc.Cached, format(sc.SimulatedS)
		},
	}
}

// TestRestartAcrossAnswerEpochs restarts a server on a -cache-dir that
// already holds an answer for the request — an optimize answer or one
// validate outcome — written under the key a given answer epoch uses.
// The stored answer is deliberately wrong, so serving it is detectable:
// only the current epoch's entry may come back from disk; any other
// epoch's, and a validate outcome an earlier build stamped with a TTL,
// gets zero store hits, a fresh computation, and a stale count.
func TestRestartAcrossAnswerEpochs(t *testing.T) {
	optimize, validate := optimizeProbe(t), validateProbe(t)
	cases := []struct {
		name                string
		probe               epochProbe
		epoch               string
		expiresAt           int64
		wantCached          bool
		wantStale, wantHits uint64
	}{
		{"epoch 1 wrote untagged keys", optimize, "", 0, false, 1, 0},
		{"a later epoch", optimize, "e99|", 0, false, 1, 0},
		{"the current epoch", optimize, core.AnswerEpoch, 0, true, 0, 1},
		{"validate at a later epoch", validate, "e99|", 0, false, 1, 0},
		{"validate stamped with a TTL", validate, core.AnswerEpoch, 1 << 62, false, 1, 0},
		{"validate at the current epoch", validate, core.AnswerEpoch, 0, true, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			log := append(store.HeaderBytes(), store.EncodeRecord(store.Entry{
				Kind: c.probe.kind, Key: c.epoch + c.probe.key,
				ExpiresAt: c.expiresAt, ElapsedMS: 1, Data: c.probe.wrong,
			})...)
			if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			srv, engine := storeServer(t, dir)

			cached, answer := c.probe.ask(t, srv.URL)
			want := c.probe.fresh
			if c.wantCached {
				want = c.probe.served
			}
			if cached != c.wantCached || answer != want {
				t.Errorf("cached=%v answer=%s, want cached=%v answer=%s", cached, answer, c.wantCached, want)
			}
			ds := engine.Stats().Disk
			if ds.Stale != c.wantStale {
				t.Errorf("stale entries %d, want %d", ds.Stale, c.wantStale)
			}
			if ds.Hits != c.wantHits {
				t.Errorf("store hits %d, want %d", ds.Hits, c.wantHits)
			}
		})
	}
}
