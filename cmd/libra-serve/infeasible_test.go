package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"libra/internal/core"
	"libra/internal/frontier"
)

// gpt3Spec is GPT-3 on 4D-4K at budget with the given constraints (a JSON
// array).
func gpt3Spec(budget float64, constraints string) string {
	return `{"topology":"4D-4K","workloads":[{"preset":"GPT-3"}],"budget_gbps":` +
		strconv.FormatFloat(budget, 'g', -1, 64) + `,"constraints":` + constraints + `}`
}

// A spec whose constraints leave no feasible allocation is the caller's
// fault: /v1/optimize answers 400 bad_spec (not a solver-side 500), a
// frontier point at such a budget fails in place with the bad-spec
// message while its feasible neighbour solves, and a feasible constrained
// spec's answer is unchanged.
func TestInfeasibleConstraintsAreBadSpec(t *testing.T) {
	srv := testServer(t)
	infeasible := []struct {
		name, constraints string
		budget            float64
	}{
		{"negative cap", `[{"kind":"dim-cap","dim":1,"value":-5}]`, 500},
		{"cap under the floor", `[{"kind":"dim-cap","dim":1,"value":0.05}]`, 500},
		{"floor over the budget", `[{"kind":"dim-floor","dim":1,"value":600}]`, 500},
		{"pair sum over the budget", `[{"kind":"pair-sum","dim":1,"dim2":2,"value":1e6}]`, 500},
		{"dollar budget too small", `[{"kind":"dollar-budget","value":1}]`, 500},
	}
	for _, c := range infeasible {
		resp, body := postJSON(t, srv.URL+"/v1/optimize", gpt3Spec(c.budget, c.constraints))
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: body %s: %v", c.name, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_spec" {
			t.Errorf("%s: status %d code %q (%s), want 400 bad_spec", c.name, resp.StatusCode, e.Code, e.Error)
		}
		if !strings.Contains(e.Error, "feasible") {
			t.Errorf("%s: error %q does not say the constraints are infeasible", c.name, e.Error)
		}
	}

	// A frontier whose floor exceeds its low budget: that point fails in
	// place with the bad-spec message, the high budget solves.
	resp, body := postJSON(t, srv.URL+"/v1/frontier",
		`{"spec":`+gpt3Spec(700, `[{"kind":"dim-floor","dim":1,"value":600}]`)+`,"frontier":{"budgets":[500,700]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier: status %d: %s", resp.StatusCode, body)
	}
	var fr frontier.Result
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 2 {
		t.Fatalf("frontier: %d points, want 2", len(fr.Points))
	}
	if low := fr.Points[0]; !strings.HasPrefix(low.Error, "core: invalid problem spec: ") || !strings.Contains(low.Error, "feasible") {
		t.Errorf("frontier point at 500 GB/s: error %q, want the bad-spec infeasibility message", low.Error)
	}
	if high := fr.Points[1]; high.Error != "" || !(high.Result.BW[0] >= 600-1e-6) {
		t.Errorf("frontier point at 700 GB/s: error %q, bw %v; want a solve with dim 1 ≥ 600", high.Error, high.Result.BW)
	}

	// A feasible constrained spec solves to the answer it always had.
	resp, body = postJSON(t, srv.URL+"/v1/optimize", gpt3Spec(500, `[{"kind":"dim-cap","dim":1,"value":300}]`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible spec: status %d: %s", resp.StatusCode, body)
	}
	var r struct {
		Result struct {
			BW           []float64 `json:"bw"`
			WeightedTime float64   `json:"weighted_time"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	// Recorded before infeasibility became a bad spec.
	wantBW := []float64{300, 100.39214055611339, 75.2941271733942, 24.313732270492412}
	const wantTime = 21.660051074523576
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	if len(r.Result.BW) != len(wantBW) || !near(r.Result.WeightedTime, wantTime) {
		t.Fatalf("feasible spec: bw %v time %v, want %v %v", r.Result.BW, r.Result.WeightedTime, wantBW, wantTime)
	}
	for d, want := range wantBW {
		if !near(r.Result.BW[d], want) {
			t.Errorf("feasible spec: bw %v, want %v", r.Result.BW, wantBW)
			break
		}
	}
}

// A spec may carry at most core.MaxConstraints constraints: at the bound
// /v1/optimize and /v1/frontier solve, one over they answer 400 bad_spec
// naming the bound before any solve.
func TestConstraintBound(t *testing.T) {
	srv := testServer(t)
	constraints := func(n int) string {
		rows := make([]string, n)
		for i := range rows {
			rows[i] = `{"kind":"dim-cap","dim":` + strconv.Itoa(1+i%4) + `,"value":1000}`
		}
		return "[" + strings.Join(rows, ",") + "]"
	}
	for _, n := range []int{core.MaxConstraints, core.MaxConstraints + 1} {
		spec := gpt3Spec(500, constraints(n))
		for _, c := range []struct{ path, body string }{
			{"/v1/optimize", spec},
			{"/v1/frontier", `{"spec":` + spec + `,"frontier":{"budgets":[400,500]}}`},
		} {
			resp, body := postJSON(t, srv.URL+c.path, c.body)
			if n <= core.MaxConstraints {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s with %d constraints: status %d: %s", c.path, n, resp.StatusCode, body)
				}
				continue
			}
			var e struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("%s: body %s: %v", c.path, body, err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_spec" ||
				!strings.Contains(e.Error, "65 constraints exceed the 64-constraint limit") {
				t.Errorf("%s with %d constraints: status %d code %q error %q, want 400 bad_spec naming the bound",
					c.path, n, resp.StatusCode, e.Code, e.Error)
			}
		}
	}
}
