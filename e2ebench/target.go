package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/server"
	"libra/internal/store"
)

// target is one running libra-serve: a separate process in a benchmark
// run, or the same handler stack in this process for self-tests and the
// traced replay. It is measured only from outside: /proc, /metrics and
// /debug/vars.
type target struct {
	url      string
	debugURL string
	// cpu is the server's consumed user + system CPU time so far.
	cpu func() (time.Duration, error)
	// peakRSS is the server's VmHWM in bytes.
	peakRSS func() (int64, error)
	stop    func() error
}

// launcher starts a server on a cache directory ("" = memory only) and
// returns once /readyz first answers 200.
type launcher func(cacheDir string) (*target, error)

// flags lists the libra-serve flags a plan runs with beyond the loopback
// address: default flags plus -cache-dir and -debug-addr.
func serverFlags(p *plan, cacheDir, debugAddr string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-print-addr", "-debug-addr", debugAddr}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	if p.lruSize != 0 {
		args = append(args, "-cache", strconv.Itoa(p.lruSize))
	}
	return args
}

// processLauncher starts the built cmd/libra-serve binary.
func processLauncher(bin string, p *plan) launcher {
	return func(cacheDir string) (*target, error) {
		debugAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, serverFlags(p, cacheDir, debugAddr)...)
		// The server must not outlive the benchmark, even a killed one.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		stop := func() error { return stopProcess(cmd) }
		lines := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(out)
			if sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
			_, _ = io.Copy(io.Discard, out)
		}()
		var url string
		select {
		case line, ok := <-lines:
			if !ok {
				_ = stop()
				return nil, fmt.Errorf("libra-serve exited before printing its address")
			}
			url = strings.TrimSpace(line)
		case <-time.After(30 * time.Second):
			_ = stop()
			return nil, fmt.Errorf("libra-serve did not print its address within 30s")
		}
		if err := waitReady(url + "/readyz"); err != nil {
			_ = stop()
			return nil, err
		}
		pid := cmd.Process.Pid
		return &target{
			url:      url,
			debugURL: "http://" + debugAddr,
			cpu:      func() (time.Duration, error) { return procCPU(pid) },
			peakRSS:  func() (int64, error) { return procHWM(strconv.Itoa(pid)) },
			stop:     stop,
		}, nil
	}
}

// stopProcess sends SIGTERM (graceful shutdown), waits, and kills the
// process if it has not exited within 15 s.
func stopProcess(cmd *exec.Cmd) error {
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("libra-serve ignored SIGTERM; killed")
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls a readiness URL until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// procCPU reads utime + stime of a process from /proc/<pid>/stat. Linux
// reports both in USER_HZ = 100 ticks per second.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	// Fields after the parenthesized command name: state is field 3,
	// utime field 14, stime field 15.
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM reads VmHWM (peak resident set) from /proc/<pid>/status.
func procHWM(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// inProcess configures the in-process server stack: the same
// server.New handler, engine, job manager and store libra-serve wires,
// with optional seams for tampering (self-tests) and tracing.
type inProcess struct {
	// cacheSize is the engine LRU size (0 = default 512, negative
	// disables the cache).
	cacheSize int
	// wrap decorates the service handler.
	wrap func(http.Handler) http.Handler
	// wrapStore decorates the disk store handed to the engine; open is
	// how long store.Open took (recovery included).
	wrapStore func(st *store.Store, open time.Duration) core.ResultStore
}

func (c inProcess) launcher(p *plan) launcher {
	return func(cacheDir string) (*target, error) {
		cfg := core.EngineConfig{CacheSize: c.cacheSize}
		if cfg.CacheSize == 0 && p.lruSize != 0 {
			cfg.CacheSize = p.lruSize
		}
		var st *store.Store
		if cacheDir != "" {
			var err error
			start := time.Now()
			st, err = store.Open(store.Config{
				Dir:           cacheDir,
				TTLs:          map[string]time.Duration{"validate": 24 * time.Hour},
				CompactBytes:  4 << 20,
				SweepInterval: 10 * time.Minute,
			})
			if err != nil {
				return nil, err
			}
			cfg.Store = st
			if c.wrapStore != nil {
				cfg.Store = c.wrapStore(st, time.Since(start))
			}
		}
		engine := core.NewEngine(cfg)
		manager := jobs.NewManager(jobs.Config{Engine: engine, Capacity: 512, TTL: 15 * time.Minute})
		logger := slog.New(slog.NewTextHandler(io.Discard, nil))
		var h http.Handler = server.New(server.Options{Engine: engine, Jobs: manager, MaxBody: 1 << 20, Logger: logger})
		if c.wrap != nil {
			h = c.wrap(h)
		}
		srv := httptest.NewServer(h)
		dbg := httptest.NewServer(expvar.Handler())
		stop := func() error {
			srv.Close()
			dbg.Close()
			manager.Close()
			engine.Close()
			if st != nil {
				return st.Close()
			}
			return nil
		}
		if err := waitReady(srv.URL + "/readyz"); err != nil {
			_ = stop()
			return nil, err
		}
		return &target{
			url:      srv.URL,
			debugURL: dbg.URL,
			cpu:      selfCPU,
			peakRSS:  func() (int64, error) { return procHWM("self") },
			stop:     stop,
		}, nil
	}
}

func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// counters scrapes /metrics into series → value, keyed by the full series
// name with labels as exposed (histogram buckets skipped).
func counters(ctx context.Context, baseURL string) (map[string]float64, error) {
	body, err := get(ctx, baseURL+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sumSeries adds every series of a metric family (all label sets).
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// memStats is the runtime.MemStats subset read from /debug/vars.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

func readMemStats(ctx context.Context, debugURL string) (memStats, error) {
	body, err := get(ctx, debugURL+"/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	err = json.Unmarshal(body, &vars)
	return vars.Memstats, err
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// runDir makes a fresh directory for one run under the build
// directory; the caller removes it.
func runDir(buildDir, name string) (string, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "runs"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join(buildDir, "runs"), name+"-")
}
