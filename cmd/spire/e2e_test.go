package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spire/internal/buildinfo"
	"spire/internal/testutil"
)

// update regenerates golden files instead of comparing against them:
//
//	go test ./cmd/spire/ -run TestE2EPipeline -update
var update = flag.Bool("update", false, "rewrite golden files")

// spireBin is the binary built once by TestMain for the black-box tests.
var spireBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "spire-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: mktemp:", err)
		os.Exit(1)
	}
	spireBin = filepath.Join(dir, "spire")
	build := exec.Command("go", "build", "-o", spireBin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building spire binary:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSpire executes the built binary and returns stdout, stderr and the
// exit code.
func runSpire(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(spireBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("spire %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// syncBuffer is a bytes.Buffer safe to write from the stderr-draining
// goroutine while the test goroutine reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) WriteString(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.WriteString(s)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// spireServer is one running `spire serve` process.
type spireServer struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	stderr  *syncBuffer
	drained chan struct{} // closed once the stderr drain goroutine hits EOF
}

// startServe launches `spire serve -addr 127.0.0.1:0 <extra...>` and
// scrapes the bound port from the "listening on" stderr line.
func startServe(t *testing.T, extra ...string) *spireServer {
	t.Helper()
	return startSpire(t, append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)...)
}

// startRoute launches `spire route -addr 127.0.0.1:0 <extra...>` — the
// router shares serve's "listening on" stderr contract, so the same
// scrape works.
func startRoute(t *testing.T, extra ...string) *spireServer {
	t.Helper()
	return startSpire(t, append([]string{"route", "-addr", "127.0.0.1:0"}, extra...)...)
}

func startSpire(t *testing.T, args ...string) *spireServer {
	t.Helper()
	cmd := exec.Command(spireBin, args...)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := &syncBuffer{}
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	// Scrape stderr for the listen address, then keep draining it in the
	// background so the child never blocks on a full pipe.
	linec := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			saved.WriteString(line + "\n")
			if strings.Contains(line, "listening on") {
				select {
				case linec <- line:
				default:
				}
			}
		}
	}()
	// Generous deadline: `go test ./...` runs this alongside CPU-heavy
	// simulator packages, and the child has to cold-start under that load.
	var listenLine string
	select {
	case listenLine = <-linec:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("spire %v never reported its listen address; stderr:\n%s", args, saved.String())
	}
	// Route's line carries a trailing "(N shards)", so no end anchor.
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(listenLine)
	if m == nil {
		cmd.Process.Kill()
		t.Fatalf("unparsable listen line %q", listenLine)
	}
	s := &spireServer{cmd: cmd, base: "http://" + m[1], stderr: saved, drained: drained}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	})
	return s
}

// stop sends SIGTERM and waits, returning the exit code.
func (s *spireServer) stop(t *testing.T) int {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling serve: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		t.Fatal("serve did not exit within 30s of SIGTERM")
	}
	// Wait for the drain goroutine to consume everything the child wrote
	// before it exited, so callers can assert on s.stderr right away.
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		t.Fatal("stderr drain did not finish after serve exited")
	}
	return s.cmd.ProcessState.ExitCode()
}

// TestE2EPipeline drives the full workflow through the real binary:
// ingest a perf CSV, train a model, serve it, and estimate over HTTP. The
// estimate response must be byte-stable across requests, match the golden
// file, and agree byte for byte with `spire analyze -json` on the same
// data — the service and the CLI are the same estimator.
func TestE2EPipeline(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "dataset.json")
	model := filepath.Join(dir, "model.json")

	stdout, stderr, code := runSpire(t, "ingest", "-o", dataset, "testdata/e2e_clean.csv")
	if code != 0 {
		t.Fatalf("ingest exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote 48 samples") {
		t.Errorf("ingest stdout: %q", stdout)
	}

	if _, stderr, code := runSpire(t, "train", "-o", model, dataset); code != 0 {
		t.Fatalf("train exit %d\nstderr: %s", code, stderr)
	}

	// The dataset file is itself a valid estimate request body
	// ({"samples":[...]}).
	body, err := os.ReadFile(dataset)
	if err != nil {
		t.Fatal(err)
	}

	srv := startServe(t, "-model", model)

	status, hdr, first := testutil.HTTPPost(t, srv.base+"/v1/estimate", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d: %s", status, first)
	}
	if got := hdr.Get("X-Spire-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}

	// Byte-stable: the same request served again (now cached) must return
	// the identical body.
	status, hdr, second := testutil.HTTPPost(t, srv.base+"/v1/estimate", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("second estimate status %d", status)
	}
	if got := hdr.Get("X-Spire-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("estimate responses are not byte-identical across a cache hit")
	}

	// Golden: the estimation field is pinned to a checked-in fixture.
	var resp struct {
		Model      string          `json:"model"`
		Estimation json.RawMessage `json:"estimation"`
	}
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("estimate response is not JSON: %v\n%s", err, first)
	}
	golden := filepath.Join("testdata", "golden_estimate.json")
	testutil.Golden(t, golden, append(resp.Estimation, '\n'), *update)

	// Parity: `spire analyze -json` prints the same estimation bytes.
	cliOut, stderr, code := runSpire(t, "analyze", "-model", model, "-json", dataset)
	if code != 0 {
		t.Fatalf("analyze -json exit %d\nstderr: %s", code, stderr)
	}
	if strings.TrimRight(cliOut, "\n") != string(resp.Estimation) {
		t.Errorf("analyze -json disagrees with serve\ncli:   %s\nserve: %s", cliOut, resp.Estimation)
	}

	// Non-trivial metrics: two estimates served, one hit, one miss.
	status, metricsText := testutil.HTTPGet(t, srv.base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(metricsText)
	if v := testutil.MustMetric(t, text, "spire_estimates_served_total"); v != 2 {
		t.Errorf("spire_estimates_served_total = %g, want 2", v)
	}
	if v := testutil.MustMetric(t, text, "spire_estimate_cache_hits_total"); v != 1 {
		t.Errorf("spire_estimate_cache_hits_total = %g, want 1", v)
	}
	if v := testutil.MustMetric(t, text, "spire_estimate_cache_misses_total"); v != 1 {
		t.Errorf("spire_estimate_cache_misses_total = %g, want 1", v)
	}
	if v := testutil.MustMetric(t, text, "spire_model_metrics"); v != 3 {
		t.Errorf("spire_model_metrics = %g, want 3", v)
	}

	// Clean SIGTERM drain.
	if code := srv.stop(t); code != 0 {
		t.Errorf("serve exit code %d after SIGTERM, want 0\nstderr:\n%s", code, srv.stderr.String())
	}
	if !strings.Contains(srv.stderr.String(), "drained") {
		t.Errorf("serve stderr missing drain confirmation:\n%s", srv.stderr.String())
	}
}

// TestE2EExitCodes pins the exit-code/stream contract: 0 ok, 1 error,
// 2 usage, 3 partial. Diagnostics go to stderr; stdout carries data only.
func TestE2EExitCodes(t *testing.T) {
	dir := t.TempDir()

	t.Run("unknown command", func(t *testing.T) {
		stdout, stderr, code := runSpire(t, "frobnicate")
		if code != 2 {
			t.Errorf("exit %d, want 2", code)
		}
		if stdout != "" {
			t.Errorf("usage errors must not write stdout: %q", stdout)
		}
		if !strings.Contains(stderr, "unknown command") {
			t.Errorf("stderr: %q", stderr)
		}
	})

	t.Run("missing input file", func(t *testing.T) {
		stdout, stderr, code := runSpire(t, "ingest", "-o", filepath.Join(dir, "x.json"), "no-such-file.csv")
		if code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		if stdout != "" {
			t.Errorf("errors must not write stdout: %q", stdout)
		}
		if !strings.Contains(stderr, "no-such-file.csv") {
			t.Errorf("stderr must name the missing file: %q", stderr)
		}
	})

	t.Run("lenient corrupt input is partial", func(t *testing.T) {
		out := filepath.Join(dir, "partial.json")
		stdout, stderr, code := runSpire(t, "ingest", "-o", out, "testdata/e2e_corrupt.csv")
		if code != 3 {
			t.Errorf("exit %d, want 3 (partial)", code)
		}
		// stdout carries only the data summary; every diagnostic is stderr.
		for _, line := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
			if !strings.HasPrefix(line, "wrote ") {
				t.Errorf("unexpected stdout line %q", line)
			}
		}
		if !strings.Contains(stderr, "garbled") {
			t.Errorf("stderr must carry the diagnostics summary: %q", stderr)
		}
		if !strings.Contains(stderr, "severe anomalies quarantined") {
			t.Errorf("stderr must explain the partial exit: %q", stderr)
		}
		// The dataset was still written and is usable.
		if _, err := os.Stat(out); err != nil {
			t.Errorf("partial ingest must still write the dataset: %v", err)
		}
	})

	t.Run("strict corrupt input is an error", func(t *testing.T) {
		stdout, _, code := runSpire(t, "ingest", "-strict", "-o", filepath.Join(dir, "y.json"), "testdata/e2e_corrupt.csv")
		if code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		if stdout != "" {
			t.Errorf("strict failure must not write stdout: %q", stdout)
		}
	})

	t.Run("clean input is ok", func(t *testing.T) {
		_, _, code := runSpire(t, "ingest", "-o", filepath.Join(dir, "z.json"), "testdata/e2e_clean.csv")
		if code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	})
}

// TestE2EDiff drives `spire diff` black-box: -json output must embed both
// estimations in core's canonical encoding (so diffing the same dataset
// against itself reproduces the golden estimate byte for byte), the text
// mode must call out the binding metric, and usage errors keep the
// exit-code contract.
func TestE2EDiff(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "dataset.json")
	model := filepath.Join(dir, "model.json")
	if _, stderr, code := runSpire(t, "ingest", "-o", dataset, "testdata/e2e_clean.csv"); code != 0 {
		t.Fatalf("ingest exit %d: %s", code, stderr)
	}
	if _, stderr, code := runSpire(t, "train", "-o", model, dataset); code != 0 {
		t.Fatalf("train exit %d: %s", code, stderr)
	}

	stdout, stderr, code := runSpire(t, "diff", "-model", model, "-json", dataset, dataset)
	if code != 0 {
		t.Fatalf("diff -json exit %d\nstderr: %s", code, stderr)
	}
	var res struct {
		Model    string          `json:"model"`
		Before   json.RawMessage `json:"before"`
		After    json.RawMessage `json:"after"`
		Speedup  float64         `json:"speedup"`
		Relieved bool            `json:"relieved"`
	}
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("diff -json output is not JSON: %v\n%s", err, stdout)
	}
	if !bytes.Equal(res.Before, res.After) {
		t.Error("identical inputs must produce identical before/after estimations")
	}
	if res.Speedup != 1 {
		t.Errorf("speedup = %g, want exactly 1 for identical inputs", res.Speedup)
	}
	if res.Relieved {
		t.Error("identical inputs cannot relieve the bottleneck")
	}
	if res.Model == "" {
		t.Error("diff -json missing the model fingerprint")
	}
	// The embedded estimation is the same canonical encoding analyze and
	// serve emit, pinned by the checked-in golden file.
	want, err := os.ReadFile(filepath.Join("testdata", "golden_estimate.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(res.Before, '\n'); !bytes.Equal(got, want) {
		t.Errorf("diff -json estimation diverges from golden file\ngot:  %s\nwant: %s", got, want)
	}

	// Text mode names the unchanged binding metric.
	stdout, stderr, code = runSpire(t, "diff", "-model", model, dataset, dataset)
	if code != 0 {
		t.Fatalf("diff exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "binding metric unchanged") {
		t.Errorf("diff text output missing binding-metric callout:\n%s", stdout)
	}

	// Contract: wrong arity is an error on stderr, nothing on stdout.
	stdout, stderr, code = runSpire(t, "diff", "-model", model, dataset)
	if code != 1 {
		t.Errorf("diff with one dataset: exit %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("diff error must not write stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "exactly two dataset files") {
		t.Errorf("stderr: %q", stderr)
	}
}

// TestSmokeServe is the `make smoke` target: start the service with a
// freshly trained model, check /healthz, serve one estimate, and shut
// down cleanly.
func TestSmokeServe(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "dataset.json")
	model := filepath.Join(dir, "model.json")
	if _, stderr, code := runSpire(t, "ingest", "-o", dataset, "testdata/e2e_clean.csv"); code != 0 {
		t.Fatalf("ingest exit %d: %s", code, stderr)
	}
	if _, stderr, code := runSpire(t, "train", "-o", model, dataset); code != 0 {
		t.Fatalf("train exit %d: %s", code, stderr)
	}

	srv := startServe(t, "-model", model)

	status, raw := testutil.HTTPGet(t, srv.base+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var health struct {
		Status    string `json:"status"`
		Ready     bool   `json:"ready"`
		Version   string `json:"version"`
		GoVersion string `json:"goVersion"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || !health.Ready {
		t.Fatalf("healthz = %s", raw)
	}
	// Build info rides on every health probe so operators can audit
	// version skew from probes alone.
	if health.Version != buildinfo.Version {
		t.Errorf("healthz version = %q, want %q", health.Version, buildinfo.Version)
	}
	if !strings.HasPrefix(health.GoVersion, "go") {
		t.Errorf("healthz goVersion = %q, want a go toolchain string", health.GoVersion)
	}

	body, err := os.ReadFile(dataset)
	if err != nil {
		t.Fatal(err)
	}
	status, _, resp := testutil.HTTPPost(t, srv.base+"/v1/estimate", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d: %s", status, resp)
	}
	var est struct {
		Estimation struct {
			PerMetric []json.RawMessage `json:"perMetric"`
		} `json:"estimation"`
	}
	if err := json.Unmarshal(resp, &est); err != nil {
		t.Fatal(err)
	}
	if len(est.Estimation.PerMetric) == 0 {
		t.Error("estimate returned no per-metric results")
	}

	if code := srv.stop(t); code != 0 {
		t.Errorf("serve exit %d after SIGTERM, want 0\nstderr:\n%s", code, srv.stderr.String())
	}
}

// TestSmokeVersion pins the `spire version` contract: exit 0, the
// one-line build banner on stdout, nothing on stderr. The flag spellings
// -version/--version answer identically.
func TestSmokeVersion(t *testing.T) {
	for _, arg := range []string{"version", "-version", "--version"} {
		stdout, stderr, code := runSpire(t, arg)
		if code != 0 {
			t.Fatalf("spire %s exit %d\nstderr: %s", arg, code, stderr)
		}
		want := "spire " + buildinfo.Version + " ("
		if !strings.HasPrefix(stdout, want) {
			t.Errorf("spire %s stdout = %q, want prefix %q", arg, stdout, want)
		}
		if !strings.Contains(stdout, "go") {
			t.Errorf("spire %s banner omits the toolchain: %q", arg, stdout)
		}
		if stderr != "" {
			t.Errorf("spire %s wrote stderr: %q", arg, stderr)
		}
	}
}

// TestSmokeRoute starts a real serve shard plus a router in front of it
// and checks the router's health probe carries the shard count and the
// same build info the shard reports — the fleet-skew audit contract.
func TestSmokeRoute(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "dataset.json")
	model := filepath.Join(dir, "model.json")
	if _, stderr, code := runSpire(t, "ingest", "-o", dataset, "testdata/e2e_clean.csv"); code != 0 {
		t.Fatalf("ingest exit %d: %s", code, stderr)
	}
	if _, stderr, code := runSpire(t, "train", "-o", model, dataset); code != 0 {
		t.Fatalf("train exit %d: %s", code, stderr)
	}

	shard := startServe(t, "-model", model)
	router := startRoute(t, "-shards", "s0="+shard.base)

	status, raw := testutil.HTTPGet(t, router.base+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("router healthz status %d", status)
	}
	var health struct {
		Status    string `json:"status"`
		Shards    int    `json:"shards"`
		Version   string `json:"version"`
		GoVersion string `json:"goVersion"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Shards != 1 {
		t.Fatalf("router healthz = %s", raw)
	}
	if health.Version != buildinfo.Version {
		t.Errorf("router healthz version = %q, want %q", health.Version, buildinfo.Version)
	}
	if !strings.HasPrefix(health.GoVersion, "go") {
		t.Errorf("router healthz goVersion = %q, want a go toolchain string", health.GoVersion)
	}

	// The router relays estimates to the shard it fronts.
	body, err := os.ReadFile(dataset)
	if err != nil {
		t.Fatal(err)
	}
	status, _, resp := testutil.HTTPPost(t, router.base+"/v1/estimate", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("routed estimate status %d: %s", status, resp)
	}

	if code := router.stop(t); code != 0 {
		t.Errorf("route exit %d after SIGTERM, want 0\nstderr:\n%s", code, router.stderr.String())
	}
	if code := shard.stop(t); code != 0 {
		t.Errorf("serve exit %d after SIGTERM, want 0\nstderr:\n%s", code, shard.stderr.String())
	}
}
