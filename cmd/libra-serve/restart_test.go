package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests run the real binary as a subprocess and kill it without
// ceremony (SIGKILL — no Shutdown, no deferred Close), which is the
// only honest way to test crash recovery: the in-process store never
// gets to say goodbye.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// serveBinary builds cmd/libra-serve once per test binary.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "libra-serve-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "libra-serve")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// startServe boots the binary with the given extra flags and returns
// its base URL plus the process handle. Callers kill it themselves.
func startServe(t *testing.T, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-print-addr", "-log-level", "warn"}, extra...)
	cmd := exec.Command(serveBinary(t), args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			urlCh <- strings.TrimSpace(sc.Text())
		}
		close(urlCh)
	}()
	select {
	case url, ok := <-urlCh:
		if !ok || url == "" {
			t.Fatal("server exited before printing its address")
		}
		return url, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("server did not print its address in 30s")
	}
	panic("unreachable")
}

// hardKill SIGKILLs the server — a crash, not a shutdown.
func hardKill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
}

// metricValue sums every sample of the named series in /metrics
// (labelled or not), so counter-vec totals read as one number.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, body := getJSON(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer series name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		total += v
	}
	return total
}

// restartSpecs: distinct problems the crash test populates; budget
// varies so each is its own fingerprint.
func restartSpec(budget int) string {
	return fmt.Sprintf(`{"topology":"RI(4)_SW(8)","budget_gbps":%d,"workloads":[{"preset":"DLRM"}]}`, budget)
}

// TestCrashRestartRecovery is the headline satellite: populate the
// persistent cache over HTTP, SIGKILL the server (with a tiny
// compaction threshold so log rewrites race the kill), tear
// the log's tail by hand, restart on the same -cache-dir, and demand
// byte-identical answers (volatile metadata aside) with zero solver
// invocations and only the torn garbage lost.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cacheDir := t.TempDir()
	// -cache-compact-bytes 1: every Put crosses the threshold, so the
	// process dies with compactions in its recent past (a renamed,
	// rewritten log on disk), not just a cold append log.
	base, cmd := startServe(t, "-cache-dir", cacheDir, "-cache-compact-bytes", "1")

	budgets := []int{150, 200, 250}
	firstBodies := make(map[int]string)
	for _, b := range budgets {
		resp, body := postJSON(t, base+"/v1/optimize", restartSpec(b))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: status %d: %s", b, resp.StatusCode, body)
		}
		firstBodies[b] = normalizePayload(t, body)
	}
	if solves := metricValue(t, base, "libra_solver_solves_total"); solves == 0 {
		t.Fatal("first boot recorded no solves")
	}
	hardKill(t, cmd)

	// Tear the tail: a partial frame (length word promising more bytes
	// than exist) as if the crash landed mid-append. Recovery must
	// truncate exactly this garbage and keep everything before it.
	logPath := filepath.Join(cacheDir, "store.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	base2, cmd2 := startServe(t, "-cache-dir", cacheDir, "-cache-compact-bytes", "1")
	defer hardKill(t, cmd2)
	solvesBefore := metricValue(t, base2, "libra_solver_solves_total")

	for _, b := range budgets {
		resp, body := postJSON(t, base2+"/v1/optimize", restartSpec(b))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart budget %d: status %d: %s", b, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"cached": true`) {
			t.Fatalf("restart budget %d: answer not served from cache: %s", b, body)
		}
		if got := normalizePayload(t, body); got != firstBodies[b] {
			t.Errorf("budget %d: restart answer diverged:\n%s\nvs\n%s", b, got, firstBodies[b])
		}
	}

	if delta := metricValue(t, base2, "libra_solver_solves_total") - solvesBefore; delta != 0 {
		t.Errorf("restarted server ran %v solves for disk-resident specs, want 0", delta)
	}
	if hits := metricValue(t, base2, "libra_store_hits_total"); hits < float64(len(budgets)) {
		t.Errorf("libra_store_hits_total = %v, want >= %d", hits, len(budgets))
	}
}

// TestWarmupBoot: a fresh server with -warmup solves the listed specs
// before serving; the first real request is then a pure cache answer
// (zero post-boot solves), and the replay outcome counter records it.
func TestWarmupBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	warmupPath := filepath.Join(dir, "warmup.jsonl")
	warmup := `# hot specs
{"kind":"optimize","spec":` + restartSpec(300) + `}
this line is not JSON and must be skipped, not fatal
{"kind":"optimize","spec":` + restartSpec(350) + `}
`
	if err := os.WriteFile(warmupPath, []byte(warmup), 0o644); err != nil {
		t.Fatal(err)
	}

	base, cmd := startServe(t, "-cache-dir", filepath.Join(dir, "cache"), "-warmup", warmupPath)
	defer hardKill(t, cmd)

	if ok := metricValue(t, base, `libra_warmup_specs_total{outcome="ok"}`); ok != 2 {
		t.Fatalf("warmup ok count %v, want 2", ok)
	}
	if skipped := metricValue(t, base, `libra_warmup_specs_total{outcome="skipped"}`); skipped != 1 {
		t.Fatalf("warmup skipped count %v, want 1", skipped)
	}

	solvesBefore := metricValue(t, base, "libra_solver_solves_total")
	for _, b := range []int{300, 350} {
		resp, body := postJSON(t, base+"/v1/optimize", restartSpec(b))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: status %d: %s", b, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"cached": true`) {
			t.Fatalf("warmed spec answered cold: %s", body)
		}
	}
	if delta := metricValue(t, base, "libra_solver_solves_total") - solvesBefore; delta != 0 {
		t.Errorf("warmed specs triggered %v solves, want 0", delta)
	}
}
