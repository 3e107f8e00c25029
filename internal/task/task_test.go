package task

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"libra/internal/cluster"
	"libra/internal/codesign"
	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/telemetry"
	"libra/internal/topology"
	"libra/internal/validate"
)

func tinySpec() *core.ProblemSpec {
	return &core.ProblemSpec{
		Topology:   "RI(4)_SW(8)",
		BudgetGBps: 200,
		Workloads:  []core.WorkloadSpec{{Preset: "DLRM"}},
	}
}

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine(core.EngineConfig{Workers: 2, CacheSize: 64})
	t.Cleanup(e.Close)
	return e
}

var update = flag.Bool("update", false, "rewrite testdata/canonical.golden")

// kindCases spells every kind at least twice: a minimal body plus a
// respelling (reordered keys, aliases, explicit defaults, or the empty
// default payload). The first case of each kind is cheap enough to Run.
var kindCases = []struct {
	name string
	kind Kind
	body string
}{
	{"optimize/minimal", KindOptimize, `{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]}}`},
	{"optimize/respelled", KindOptimize, `{"spec":{"workloads":[{"preset":"DLRM","weight":1}],"objective":"perf","loop":"no-overlap","budget_gbps":200,"topology":"RI(4)_SW(8)"},"kind":"optimize"}`},
	{"optimize/ppc", KindOptimize, `{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"objective":"ppc","workloads":[{"preset":"DLRM"}]}}`},
	{"optimize/perf-per-cost", KindOptimize, `{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"objective":"perf-per-cost","workloads":[{"preset":"DLRM","weight":1}]}}`},
	{"evaluate/minimal", KindEvaluate, `{"kind":"evaluate","spec":{"spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]},"bw":[100,100]}}`},
	{"evaluate/respelled", KindEvaluate, `{"kind":"evaluate","spec":{"bw":[100.0,1e2],"spec":{"workloads":[{"preset":"DLRM","weight":1}],"topology":"RI(4)_SW(8)","budget_gbps":200,"objective":"perf"}}}`},
	{"sweep/minimal", KindSweep, `{"kind":"sweep","spec":{"spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]},"sweep":{"budgets":[100,200]}}}`},
	{"sweep/respelled", KindSweep, `{"kind":"sweep","spec":{"sweep":{"budgets":[100,200],"objectives":["perf","ppc"]},"spec":{"workloads":[{"preset":"DLRM","weight":1}],"topology":"RI(4)_SW(8)","budget_gbps":200}}}`},
	{"frontier/minimal", KindFrontier, `{"kind":"frontier","spec":{"spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]},"frontier":{"budgets":[100,200]}}}`},
	{"frontier/respelled", KindFrontier, `{"kind":"frontier","spec":{"frontier":{"budget_min":100,"budget_max":200,"budget_steps":3,"skip_equal_bw":true},"spec":{"objective":"perf-per-cost","workloads":[{"preset":"DLRM","weight":1}],"topology":"RI(4)_SW(8)","budget_gbps":200}}}`},
	{"codesign/minimal", KindCoDesign, `{"kind":"codesign","spec":{"base":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}}]},"tps":[2,4]}}`},
	{"codesign/respelled", KindCoDesign, `{"spec":{"tps":[2,4],"base":{"workloads":[{"weight":1,"transformer":{"minibatch":4,"tp":2,"seq_len":64,"hidden":256,"num_layers":2}}],"budget_gbps":200,"topology":"RI(4)_SW(8)","objective":"perf"}},"kind":"codesign"}`},
	{"validate/minimal", KindValidate, `{"kind":"validate","spec":{"topologies":["3D-Torus"],"workloads":["DLRM"]}}`},
	{"validate/default-empty", KindValidate, `{"kind":"validate"}`},
	{"validate/default-object", KindValidate, `{"kind":"validate","spec":{}}`},
	{"cluster/minimal", KindCluster, `{"kind":"cluster","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"jobs":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}},{"name":"two","transformer":{"num_layers":2,"hidden":128,"seq_len":64,"tp":2,"minibatch":4},"weight":2}],"partition_steps":4}}`},
	{"cluster/default-empty", KindCluster, `{"kind":"cluster"}`},
	{"cluster/default-explicit", KindCluster, `{"kind":"cluster","spec":{"topology":"4D-4K","budget_gbps":1000,"jobs":[{"preset":"Turing-NLG"},{"preset":"GPT-3"},{"preset":"MSFT-1T"}]}}`},
}

// TestCanonicalGolden locks every kind's wire form, canonical envelope
// bytes and fingerprint: fingerprints key the result cache, the on-disk
// store and ETags, so any drift is a compatibility break. Regenerate with
// `go test ./internal/task -run TestCanonicalGolden -update`.
func TestCanonicalGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range kindCases {
		tk, err := Parse([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		wire, err := json.Marshal(tk)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		canon, err := tk.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: canonical: %v", tc.name, err)
		}
		fp, err := tk.Fingerprint()
		if err != nil {
			t.Fatalf("%s: fingerprint: %v", tc.name, err)
		}
		fmt.Fprintf(&buf, "# %s\nin:          %s\nwire:        %s\ncanonical:   %s\nfingerprint: %s\n\n",
			tc.name, tc.body, wire, canon, fp)
	}
	golden := filepath.Join("testdata", "canonical.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("canonical forms drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// Every kind parses from its envelope form, round-trips through
// MarshalJSON, and fingerprints stably.
func TestParseRoundTripAllKinds(t *testing.T) {
	for _, tc := range kindCases {
		tk, err := Parse([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if tk.Kind != tc.kind {
			t.Fatalf("%s: parsed kind %q", tc.name, tk.Kind)
		}
		fp1, err := tk.Fingerprint()
		if err != nil {
			t.Fatalf("%s: fingerprint: %v", tc.name, err)
		}
		wire, err := json.Marshal(tk)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("%s: reparse %s: %v", tc.name, wire, err)
		}
		fp2, err := again.Fingerprint()
		if err != nil {
			t.Fatalf("%s: refingerprint: %v", tc.name, err)
		}
		if fp1 != fp2 {
			t.Errorf("%s: fingerprint drifted across wire round-trip: %s != %s", tc.name, fp1, fp2)
		}
	}
}

// The canonical form absorbs spelling differences the same way the
// underlying spec canonicalization does.
func TestFingerprintCanonicalization(t *testing.T) {
	a, err := Parse([]byte(`{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"objective":"ppc","workloads":[{"preset":"DLRM"}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"objective":"perf-per-cost","workloads":[{"preset":"DLRM","weight":1}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	fpA, errA := a.Fingerprint()
	fpB, errB := b.Fingerprint()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if fpA != fpB {
		t.Errorf("spellings of the same task fingerprint differently: %s vs %s", fpA, fpB)
	}
	// Different kinds over the same spec must not collide.
	opt := NewOptimize(tinySpec())
	fr := NewFrontier(tinySpec(), frontier.Request{Budgets: []float64{200}})
	fpOpt, _ := opt.Fingerprint()
	fpFr, _ := fr.Fingerprint()
	if fpOpt == fpFr {
		t.Error("optimize and frontier tasks over the same spec collided")
	}
}

// Parse rejections: unknown kinds, unknown fields at the envelope and
// payload levels, and missing specs are all ErrBadSpec.
func TestParseRejections(t *testing.T) {
	cases := []string{
		`{"kind":"divinate","spec":{}}`,
		`{"kind":"optimize"}`,
		`{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":1,"workloads":[{"preset":"DLRM"}],"bogus":1}}`,
		`{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)"},"extra":true}`,
		`{"kind":"evaluate","spec":{"bw":[1,2]}}`,
		`{"kind":"sweep","spec":{"spec":{"topology":"RI(4)_SW(8)","budget_gbps":1,"workloads":[{"preset":"DLRM"}]},"swoop":{}}}`,
	}
	for _, body := range cases {
		if _, err := Parse([]byte(body)); err == nil {
			t.Errorf("parse accepted %s", body)
		} else if !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("parse of %s: error %v is not ErrBadSpec", body, err)
		}
	}
	// An empty payload is only legal for validate.
	if _, err := FromKindPayload(KindOptimize, nil); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("empty optimize payload: %v", err)
	}
	tk, err := FromKindPayload(KindValidate, nil)
	if err != nil {
		t.Fatalf("empty validate payload: %v", err)
	}
	if _, ok := tk.Spec.(*validate.Spec); !ok {
		t.Fatalf("empty validate payload parsed to %T", tk.Spec)
	}
}

// Run dispatches every kind to the engine and returns the exact payload
// type the matching /v1 endpoint serializes.
func TestRunDispatchAllKinds(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()

	res, err := Run(ctx, engine, NewOptimize(tinySpec()))
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	opt, ok := res.(core.EngineResult)
	if !ok {
		t.Fatalf("optimize returned %T", res)
	}
	if opt.Result.WeightedTime <= 0 {
		t.Fatalf("optimize time %v", opt.Result.WeightedTime)
	}

	res, err = Run(ctx, engine, NewEvaluate(tinySpec(), topology.BWConfig{100, 100}))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if _, ok := res.(core.EngineResult); !ok {
		t.Fatalf("evaluate returned %T", res)
	}

	res, err = Run(ctx, engine, NewSweep(tinySpec(), core.SweepRequest{Budgets: []float64{100, 200}}))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	sw, ok := res.(*SweepResult)
	if !ok || len(sw.Points) != 2 {
		t.Fatalf("sweep returned %T %+v", res, res)
	}

	res, err = Run(ctx, engine, NewFrontier(tinySpec(), frontier.Request{Budgets: []float64{100, 200}}))
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	fr, ok := res.(*frontier.Result)
	if !ok || len(fr.Points) != 2 {
		t.Fatalf("frontier returned %T", res)
	}

	cspec, err := core.DecodeStrict[codesign.Spec]([]byte(`{"base":{"topology":"RI(4)_SW(8)","budget_gbps":200,
		"workloads":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}}]},"tps":[2,4]}`), "codesign")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(ctx, engine, NewCoDesign(cspec))
	if err != nil {
		t.Fatalf("codesign: %v", err)
	}
	cd, ok := res.(*codesign.Report)
	if !ok || len(cd.Candidates) != 2 {
		t.Fatalf("codesign returned %T", res)
	}

	res, err = Run(ctx, engine, NewValidate(&validate.Spec{Topologies: []string{"3D-Torus"}, Workloads: []string{"DLRM"}}))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	va, ok := res.(*validate.Report)
	if !ok || va.Evaluated == 0 {
		t.Fatalf("validate returned %T", res)
	}

	clspec, err := core.DecodeStrict[cluster.Spec]([]byte(`{"topology":"RI(4)_SW(8)","budget_gbps":200,
		"jobs":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}},
		        {"name":"two","transformer":{"num_layers":2,"hidden":128,"seq_len":64,"tp":2,"minibatch":4}}],
		"partition_steps":4}`), "cluster")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(ctx, engine, NewCluster(clspec))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	cl, ok := res.(*cluster.Report)
	if !ok || len(cl.Jobs) != 2 || cl.GroupDesign() == nil || cl.Partition == nil {
		t.Fatalf("cluster returned %T %+v", res, res)
	}
}

// An empty cluster payload selects the default Fig. 17(a) scenario,
// mirroring validate's default matrix — without running it.
func TestEmptyClusterPayloadDefaults(t *testing.T) {
	tk, err := FromKindPayload(KindCluster, nil)
	if err != nil {
		t.Fatalf("empty cluster payload: %v", err)
	}
	if _, ok := tk.Spec.(*cluster.Spec); !ok {
		t.Fatalf("empty cluster payload parsed to %T", tk.Spec)
	}
	fpEmpty, err := tk.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := FromKindPayload(KindCluster,
		[]byte(`{"topology":"4D-4K","budget_gbps":1000,"jobs":[{"preset":"Turing-NLG"},{"preset":"GPT-3"},{"preset":"MSFT-1T"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if fpExp, err := explicit.Fingerprint(); err != nil || fpExp != fpEmpty {
		t.Errorf("empty payload should fingerprint as the default scenario: %q vs %q (%v)", fpEmpty, fpExp, err)
	}
}

// progressStages names every stage a task can report, so a row can check
// that no stage outside its own moved /metrics.
var progressStages = []string{"sweep", "frontier", "codesign", "codesign-frontier", "validate", "cluster", "cluster-frontier"}

// Run with a progress hook: every task reports exactly its own stages,
// each stage's done never regresses and finishes at its total, and each
// point counts once in libra_sweep_points_total under the stage that
// reported it — a frontier nested in a codesign or cluster study ticks
// the study's stage, never a bare "frontier" one.
func TestRunFrontierProgress(t *testing.T) {
	budgets := []float64{100, 150, 200, 250}
	cspec, err := core.DecodeStrict[codesign.Spec]([]byte(`{"base":{"topology":"RI(4)_SW(8)","budget_gbps":200,
		"workloads":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}}]},
		"tps":[2,4],"budgets":[100,200]}`), "codesign")
	if err != nil {
		t.Fatal(err)
	}
	clspec, err := core.DecodeStrict[cluster.Spec]([]byte(`{"topology":"RI(4)_SW(8)","budget_gbps":200,
		"jobs":[{"transformer":{"num_layers":2,"hidden":256,"seq_len":64,"tp":2,"minibatch":4}},
		        {"name":"two","transformer":{"num_layers":2,"hidden":128,"seq_len":64,"tp":2,"minibatch":4}}],
		"partition_steps":4,"budgets":[100,200]}`), "cluster")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		task   *Task
		stages []string
	}{
		{"frontier", NewFrontier(tinySpec(), frontier.Request{Budgets: budgets}), []string{"frontier"}},
		{"codesign", NewCoDesign(cspec), []string{"codesign", "codesign-frontier"}},
		{"cluster", NewCluster(clspec), []string{"cluster", "cluster-frontier"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := map[string]uint64{}
			for _, st := range progressStages {
				before[st] = telemetry.SweepPoints.With(st).Value()
			}
			var mu sync.Mutex
			events := map[string][]core.Progress{}
			ctx := core.WithProgress(context.Background(), func(p core.Progress) {
				mu.Lock()
				defer mu.Unlock()
				events[p.Stage] = append(events[p.Stage], p)
			})
			if _, err := Run(ctx, testEngine(t), tc.task); err != nil {
				t.Fatal(err)
			}
			var got []string
			for st := range events {
				got = append(got, st)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.stages...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stages %v, want %v", got, want)
			}
			final := map[string]int{}
			for st, evs := range events {
				for i, p := range evs {
					if p.Total != evs[0].Total {
						t.Errorf("%s event %d: total %d, want %d", st, i, p.Total, evs[0].Total)
					}
					if i > 0 && p.Done < evs[i-1].Done {
						t.Errorf("%s event %d: done regressed %d -> %d", st, i, evs[i-1].Done, p.Done)
					}
					if p.CacheHits > p.Done {
						t.Errorf("%s event %d: cache hits %d exceed done %d", st, i, p.CacheHits, p.Done)
					}
				}
				last := evs[len(evs)-1]
				if last.Done != last.Total || last.Total == 0 {
					t.Errorf("%s final event %d/%d, want complete", st, last.Done, last.Total)
				}
				final[st] = last.Done
			}
			for _, st := range progressStages {
				if delta := telemetry.SweepPoints.With(st).Value() - before[st]; delta != uint64(final[st]) {
					t.Errorf("libra_sweep_points_total{stage=%q} moved %d, want %d", st, delta, final[st])
				}
			}
		})
	}
}

// Run error paths: nil payloads and bad specs stay ErrBadSpec so service
// layers map them to 400s.
func TestRunErrors(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	for _, tk := range []*Task{
		nil,
		{Kind: KindOptimize},
		{Kind: KindEvaluate},
		{Kind: Kind("bogus")},
	} {
		if _, err := Run(ctx, engine, tk); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("Run(%+v): error %v is not ErrBadSpec", tk, err)
		}
	}
	bad := tinySpec()
	bad.Topology = "not-a-topology"
	if _, err := Run(ctx, engine, NewOptimize(bad)); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("bad topology: %v", err)
	}
	if _, err := (&Task{Kind: KindOptimize, Spec: bad}).Fingerprint(); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("bad-spec fingerprint: %v", err)
	}
}

// The envelope's evaluate/sweep/frontier payloads are the untouched v1
// bodies: FromKindPayload over a v1 body and Parse over the wrapped
// envelope build identical tasks.
func TestEnvelopeMatchesV1Bodies(t *testing.T) {
	v1 := `{"spec":{"topology":"RI(4)_SW(8)","budget_gbps":200,"workloads":[{"preset":"DLRM"}]},"frontier":{"budgets":[100,200]}}`
	fromV1, err := FromKindPayload(KindFrontier, []byte(v1))
	if err != nil {
		t.Fatal(err)
	}
	fromEnv, err := Parse([]byte(`{"kind":"frontier","spec":` + v1 + `}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromV1, fromEnv) {
		t.Errorf("v1 payload and envelope parse diverged:\n%+v\n%+v", fromV1, fromEnv)
	}
	if !strings.Contains(kindList(), "codesign") {
		t.Error("kind list lost codesign")
	}
}

// Every registry row round-trips its result: parse → Run → JSON →
// DecodeResult yields the dynamic type Run returned and an equal value,
// which is what the CLI's remote runner and the client accessors rely on.
func TestRegistryParity(t *testing.T) {
	engine := testEngine(t)
	first := map[Kind]string{}
	for _, tc := range kindCases {
		if _, ok := first[tc.kind]; !ok {
			first[tc.kind] = tc.body
		}
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			body, ok := first[kind]
			if !ok {
				t.Fatalf("no kindCases entry for %s", kind)
			}
			tk, err := Parse([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), engine, tk)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeResult(kind, data)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.TypeOf(back) != reflect.TypeOf(res) {
				t.Fatalf("DecodeResult gave %T, Run gave %T", back, res)
			}
			if !reflect.DeepEqual(back, res) {
				t.Errorf("decoded result differs from Run's:\n%+v\n%+v", back, res)
			}
		})
	}
	if _, err := DecodeResult(Kind("bogus"), []byte(`{}`)); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("unknown kind decode: %v", err)
	}
}

// A result reads the same in process and decoded from JSON: no type
// reachable from a kind's Run result has a field the wire drops.
func TestResultTypesHaveNoInProcessFields(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Tag.Get("json") == "-" {
				t.Errorf("%s.%s (%s) is tagged json:\"-\"", path, f.Name, typ)
			}
			walk(f.Type, path+"."+f.Name)
		}
	}
	for _, kind := range Kinds() {
		zero, err := DecodeResult(kind, []byte("null"))
		if err != nil {
			t.Fatal(err)
		}
		walk(reflect.TypeOf(zero), string(kind))
	}
	if len(seen) < 10 {
		t.Errorf("walked only %d struct types", len(seen))
	}
}

// Every strict decoder rejects data after the JSON value (a second
// document, garbage, a stray brace) and still accepts trailing
// whitespace: the envelope, each kind's bare payload, and
// core.ParseSpec.
func TestTrailingDataRejected(t *testing.T) {
	type entry struct {
		name  string
		parse func([]byte) error
		good  string
	}
	var entries []entry
	payloads := map[Kind]string{}
	for _, tc := range kindCases {
		if _, ok := payloads[tc.kind]; ok {
			continue
		}
		env, err := core.DecodeStrict[envelope]([]byte(tc.body), "test")
		if err != nil {
			t.Fatal(err)
		}
		kind := tc.kind
		payloads[kind] = string(env.Spec)
		entries = append(entries,
			entry{"envelope/" + string(kind), func(b []byte) error { _, err := Parse(b); return err }, tc.body},
			entry{"payload/" + string(kind), func(b []byte) error { _, err := FromKindPayload(kind, b); return err }, string(env.Spec)})
	}
	entries = append(entries,
		entry{"core.ParseSpec", func(b []byte) error { _, err := core.ParseSpec(b); return err }, payloads[KindOptimize]})
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			if err := e.parse([]byte(e.good + " \n\t")); err != nil {
				t.Fatalf("trailing whitespace rejected: %v", err)
			}
			for _, tail := range []string{"xyz", ` {"kind":"cluster"} trailing-garbage`, "}", " 1", " nope"} {
				err := e.parse([]byte(e.good + tail))
				if err == nil {
					t.Errorf("accepted trailing %q", tail)
				} else if strings.HasPrefix(e.name, "envelope/") || strings.HasPrefix(e.name, "payload/") {
					if !errors.Is(err, core.ErrBadSpec) {
						t.Errorf("trailing %q: error %v is not ErrBadSpec", tail, err)
					}
				}
			}
		})
	}
}

// A Spec whose type does not match the task's Kind is ErrBadSpec on
// every registry path, never a panic or a silent reinterpretation.
func TestMistypedSpecRejected(t *testing.T) {
	engine := testEngine(t)
	tk := &Task{Kind: KindOptimize, Spec: &validate.Spec{}}
	if _, err := tk.Fingerprint(); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("fingerprint: %v", err)
	}
	if _, err := json.Marshal(tk); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("marshal: %v", err)
	}
	if _, err := Run(context.Background(), engine, tk); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("run: %v", err)
	}
	if _, err := Run(context.Background(), engine, NewEvaluate(nil, topology.BWConfig{1, 1})); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("evaluate without a base spec: %v", err)
	}
}

// payloadSeeds are bare kind payloads for FuzzTaskParse, wrapped in
// their envelope: full, minimal, unbuildable and malformed spellings of
// each spec type.
var payloadSeeds = []struct {
	kind   Kind
	bodies []string
}{
	{KindOptimize, []string{
		`{}`,
		`{"topology": "4D-4K", "workloads": [{"preset": "GPT-3"}], "budget_gbps": 500}`,
		`{"topology": "RI(4)_FC(8)_RI(4)_SW(32)", "budget_gbps": 500,
		  "workloads": [{"preset": "GPT-3"}, {"preset": "DLRM", "weight": 2}],
		  "objective": "ppc", "loop": "overlap", "opt_policy": "ideal",
		  "min_dim_bw": 0.5, "in_network": [false, false, false, true],
		  "constraints": [{"kind": "dim-cap", "dim": 4, "value": 50},
		                  {"kind": "ordered", "dim": 1, "dim2": 4}],
		  "solver": {"starts": 2, "seed": 7, "strategy": "cd"}}`,
		`{"topology": "RI(4)_SW(8)", "budget_gbps": 300,
		  "workloads": [{"transformer": {"name": "tiny", "num_layers": 4, "hidden": 512,
		  "seq_len": 64, "tp": 4, "minibatch": 8}}]}`,
		`{"topology": "RI(2)_RI(2)", "budget_gbps": 10, "skip_budget": true,
		  "workloads": [{"transformer": {"num_layers": 2, "hidden": 8, "seq_len": 4,
		  "tp": 1, "pp": 2, "dp": 2, "minibatch": 4, "microbatches": 2}}],
		  "constraints": [{"kind": "dollar-budget", "value": 1e6}],
		  "compute": {"effective_tflops": 100, "memory_bw_gbps": 1000},
		  "cost": {"tiers": {"Node": {"link_per_gbps": 10}}}}`,
		`{"topology": "definitely-not", "workloads": []}`,
		`{"unknown_field": 1}`,
		`[]`,
		`nul`,
	}},
	{KindCoDesign, []string{
		`{}`,
		`{"base": {"topology": "RI(4)_SW(8)", "budget_gbps": 300,
		  "workloads": [{"transformer": {"name": "tiny", "num_layers": 4,
		  "hidden": 512, "seq_len": 64, "tp": 4, "minibatch": 8}}]},
		  "tps": [2, 4, 8]}`,
		`{"base": {"topology": "4D-4K", "budget_gbps": 1000,
		  "workloads": [{"preset": "MSFT-1T"}]},
		  "tps": [64, 128], "memory_gb": 80}`,
		`{"base": {"topology": "RI(2)_RI(2)_RI(2)", "budget_gbps": 100,
		  "workloads": [{"transformer": {"num_layers": 4, "hidden": 16,
		  "seq_len": 8, "tp": 2, "pp": 2, "dp": 2, "minibatch": 4, "microbatches": 2}}]},
		  "pps": [1, 2], "global_batch": 8, "budgets": [50, 100], "skip_equal_bw": true}`,
		`{"base": {"topology": "nope", "workloads": []}}`,
		`{"tps": [0]}`,
		`{"bogus": true}`,
	}},
	{KindValidate, []string{
		`{}`,
		`{"topologies": ["3D-Torus"], "workloads": ["DLRM"], "collectives": ["ar", "a2a"]}`,
		`{"topologies": ["RI(4)_SW(8)"], "loops": ["overlap"], "budget_gbps": 100,
		  "collective_bytes": 5e8, "chunks": 16, "npu_level_chunks": 2,
		  "npu_level_max_npus": 64, "in_network": true, "tolerance": 0.3}`,
		`{"collectives": ["broadcast"]}`,
		`{"topologies": ["bogus"]}`,
		`{"unknown": 1}`,
	}},
	{KindCluster, []string{
		`{}`,
		`{"jobs": [{"preset": "GPT-3"}, {"preset": "DLRM", "weight": 0.5}]}`,
		`{"topology": "RI(4)_SW(8)", "budget_gbps": 300, "partition_steps": 4,
		  "jobs": [{"name": "t", "transformer": {"num_layers": 4, "hidden": 512, "seq_len": 64, "tp": 4}}],
		  "policies": ["group-opt", "partition"]}`,
		`{"jobs": [{"preset": "MSFT-1T", "weight": 0}, {"preset": "GPT-3"}],
		  "budgets": [500, 1000, 2000], "solver": {"starts": 1}}`,
		`{"policies": ["nope"]}`,
		`{"topology": "bogus"}`,
		`{"unknown": 1}`,
	}},
}

// fuzzSeeds is FuzzTaskParse's seed corpus: every kindCases body, a few
// malformed envelopes, then the payloadSeeds.
func fuzzSeeds() []string {
	var seeds []string
	for _, tc := range kindCases {
		seeds = append(seeds, tc.body)
	}
	seeds = append(seeds, `{}`, `{"kind":"divinate"}`, `{"kind":"optimize","spec":null}`,
		`{"kind":"evaluate","spec":{"spec":null,"bw":[1]}}`, `{"kind":"validate","spec":[]}`, `nul`)
	for _, p := range payloadSeeds {
		for _, body := range p.bodies {
			seeds = append(seeds, `{"kind":"`+string(p.kind)+`","spec":`+body+`}`)
		}
	}
	return seeds
}

// Every kind has a seed in FuzzTaskParse's corpus that parses and
// canonicalizes, so a kind added to the registry cannot go unfuzzed.
func TestFuzzSeedsCoverEveryKind(t *testing.T) {
	seeded := map[Kind]bool{}
	for _, s := range fuzzSeeds() {
		tk, err := Parse([]byte(s))
		if err != nil {
			continue
		}
		if _, err := tk.MarshalCanonical(); err == nil {
			seeded[tk.Kind] = true
		}
	}
	for _, k := range Kinds() {
		if !seeded[k] {
			t.Errorf("FuzzTaskParse has no seed that parses and canonicalizes as a %s task", k)
		}
	}
}

// FuzzTaskParse drives the envelope parser with arbitrary bytes: it must
// never panic; an accepted task's verbatim wire form re-parses and never
// turns an unbuildable task buildable; and for any accepted task whose
// spec builds, MarshalCanonical → Parse → MarshalCanonical is a fixed
// point and the fingerprint is stable across both round-trips.
func FuzzTaskParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tk, err := Parse(data)
		if err != nil {
			if !errors.Is(err, core.ErrBadSpec) {
				t.Fatalf("parse error %v is not ErrBadSpec", err)
			}
			return
		}
		wire, err := json.Marshal(tk)
		if err != nil {
			t.Fatalf("accepted task does not marshal: %v", err)
		}
		back, err := Parse(wire)
		if err != nil {
			t.Fatalf("wire form does not re-parse: %v\n%s", err, wire)
		}
		canon, err := tk.MarshalCanonical()
		if err != nil {
			if _, fpErr := tk.Fingerprint(); !errors.Is(fpErr, core.ErrBadSpec) {
				t.Fatalf("unbuildable task fingerprints: %v", fpErr)
			}
			if _, err := back.MarshalCanonical(); err == nil {
				t.Fatalf("wire round-trip made an unbuildable task buildable:\n%s", wire)
			}
			return
		}
		re, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		canon2, err := re.MarshalCanonical()
		if err != nil || !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\n%s", err, canon, canon2)
		}
		fp, err := tk.Fingerprint()
		if err != nil {
			t.Fatalf("canonicalizable task does not fingerprint: %v", err)
		}
		for _, other := range []*Task{re, back} {
			if fp2, err := other.Fingerprint(); err != nil || fp2 != fp {
				t.Fatalf("fingerprint not stable: %q vs %q (%v)", fp, fp2, err)
			}
		}
	})
}
