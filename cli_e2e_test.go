package pipefail

// End-to-end test of the command-line tools: builds the binaries once and
// drives the pipegen → pipetrain workflow the README documents, plus a
// pipeeval experiment and a riskmap render. Skipped under -short.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// buildCmds compiles every cmd/ binary into a temp dir and returns their
// paths keyed by name.
func buildCmds(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range []string{"pipegen", "pipetrain", "pipeeval", "riskmap", "pipeserve", "pipeconv"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	msg, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, msg)
	}
	return string(msg)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	work := t.TempDir()
	dataDir := filepath.Join(work, "regionA")

	// 1. Generate a small region.
	out := runCmd(t, bins["pipegen"], "-region", "A", "-seed", "3", "-scale", "0.04", "-out", dataDir)
	if !strings.Contains(out, "generated region A") || !strings.Contains(out, "CWM") {
		t.Fatalf("pipegen output:\n%s", out)
	}
	for _, f := range []string{"pipes.csv", "failures.csv", "meta.csv"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	// 2. Train on it and persist the model.
	modelPath := filepath.Join(work, "model.json")
	out = runCmd(t, bins["pipetrain"],
		"-data", dataDir, "-model", "DirectAUC-ES", "-esgens", "10",
		"-top", "5", "-save", modelPath)
	if !strings.Contains(out, "AUC") || !strings.Contains(out, "top 5 pipes") {
		t.Fatalf("pipetrain output:\n%s", out)
	}
	if !strings.Contains(out, "top feature weights") {
		t.Fatalf("pipetrain missing importance table:\n%s", out)
	}
	blob, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "DirectAUC-ES") {
		t.Fatalf("persisted model malformed:\n%s", blob)
	}

	// 3. One cheap experiment through pipeeval.
	out = runCmd(t, bins["pipeeval"],
		"-exp", "T1", "-scale", "0.04", "-regions", "A")
	if !strings.Contains(out, "T1: pipe network") {
		t.Fatalf("pipeeval output:\n%s", out)
	}
	if strings.Contains(out, "== metrics ==") {
		t.Fatalf("metrics snapshot printed without -metrics:\n%s", out)
	}

	// 3b. -metrics appends a JSON snapshot with fit timings and pool
	// counters after an evaluation run.
	out = runCmd(t, bins["pipeeval"],
		"-exp", "T2", "-scale", "0.04", "-regions", "A", "-seed", "3",
		"-models", "Heuristic-Age,Logistic", "-metrics")
	idx := strings.Index(out, "== metrics ==")
	if idx < 0 {
		t.Fatalf("pipeeval -metrics missing snapshot:\n%s", out)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(out[idx+len("== metrics =="):]), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v\n%s", err, out[idx:])
	}
	if h, ok := snap.Histograms["core.fit_seconds.Logistic"]; !ok || h.Count < 1 {
		t.Fatalf("snapshot missing core.fit_seconds.Logistic: %+v", snap.Histograms)
	}
	if _, ok := snap.Histograms["experiments.eval_seconds.A.Logistic"]; !ok {
		t.Fatalf("snapshot missing experiments.eval_seconds.A.Logistic: %+v", snap.Histograms)
	}
	if snap.Counters["parallel.run.calls"]+snap.Counters["parallel.dynamic.calls"] < 1 {
		t.Fatalf("snapshot missing parallel pool counters: %+v", snap.Counters)
	}

	// 4. Risk map SVG.
	svgPath := filepath.Join(work, "map.svg")
	out = runCmd(t, bins["riskmap"],
		"-region", "A", "-model", "Heuristic-Age", "-scale", "0.04", "-out", svgPath)
	if !strings.Contains(out, "top-decile hit") {
		t.Fatalf("riskmap output:\n%s", out)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatal("riskmap did not produce an SVG")
	}
}

// TestCLIColumnarEndToEnd drives the columnar data plane through the
// binaries: pipegen writes the same region in both formats, pipeconv
// round-trips between them byte-exactly, and pipetrain produces identical
// output whichever format it loads.
func TestCLIColumnarEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	work := t.TempDir()
	csvDir := filepath.Join(work, "csvA")
	colDir := filepath.Join(work, "colA")

	// An unknown format is refused before anything is created.
	badDir := filepath.Join(work, "bad")
	cmd := exec.Command(bins["pipegen"], "-format", "xyz", "-out", badDir)
	if msg, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(msg), `unknown -format "xyz"`) {
		t.Fatalf("pipegen -format xyz should fail: err=%v\n%s", err, msg)
	}
	if _, err := os.Stat(badDir); !os.IsNotExist(err) {
		t.Fatalf("pipegen -format xyz left %s behind (stat err %v)", badDir, err)
	}

	// The same region in both formats.
	runCmd(t, bins["pipegen"], "-region", "A", "-seed", "3", "-scale", "0.04", "-out", csvDir)
	out := runCmd(t, bins["pipegen"], "-region", "A", "-seed", "3", "-scale", "0.04",
		"-format", "col", "-out", colDir)
	if !strings.Contains(out, "generated region A") {
		t.Fatalf("pipegen -format col output:\n%s", out)
	}
	colFile := filepath.Join(colDir, "dataset.col")
	if _, err := os.Stat(colFile); err != nil {
		t.Fatalf("missing dataset.col: %v", err)
	}

	// CSV -> columnar conversion must reproduce pipegen's columnar bytes.
	convCol := filepath.Join(work, "conv.col")
	out = runCmd(t, bins["pipeconv"], "-in", csvDir, "-out", convCol)
	if !strings.Contains(out, "pipes:") {
		t.Fatalf("pipeconv output:\n%s", out)
	}
	direct, err := os.ReadFile(colFile)
	if err != nil {
		t.Fatal(err)
	}
	converted, err := os.ReadFile(convCol)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, converted) {
		t.Fatalf("pipegen -format col (%d bytes) and pipeconv CSV->col (%d bytes) differ",
			len(direct), len(converted))
	}

	// Columnar -> CSV must reproduce the original CSV bytes.
	backDir := filepath.Join(work, "back")
	runCmd(t, bins["pipeconv"], "-in", colDir, "-out", backDir)
	for _, name := range []string{"pipes.csv", "failures.csv", "meta.csv"} {
		want, err := os.ReadFile(filepath.Join(csvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(backDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("columnar->CSV round trip changed %s", name)
		}
	}

	// Training must not depend on which format fed it.
	trainCSV := runCmd(t, bins["pipetrain"], "-data", csvDir, "-model", "RankSVM", "-top", "5")
	trainCol := runCmd(t, bins["pipetrain"], "-data", colDir, "-model", "RankSVM", "-top", "5")
	if trainCSV != trainCol {
		t.Fatalf("pipetrain output differs across formats:\n--- csv ---\n%s\n--- col ---\n%s",
			trainCSV, trainCol)
	}
	// A bare .col file path works too.
	trainFile := runCmd(t, bins["pipetrain"], "-data", colFile, "-model", "RankSVM", "-top", "5")
	if trainFile != trainCol {
		t.Fatalf("pipetrain on bare .col differs:\n%s\nvs\n%s", trainFile, trainCol)
	}

	// pipeeval evaluates loaded datasets via -data, and refuses
	// experiments that need the synthetic generator.
	out = runCmd(t, bins["pipeeval"], "-data", csvDir+","+colDir,
		"-exp", "T2", "-models", "Heuristic-Age")
	if !strings.Contains(out, "T2:") || !strings.Contains(out, "region A") {
		t.Fatalf("pipeeval -data output:\n%s", out)
	}
	cmd = exec.Command(bins["pipeeval"], "-data", csvDir, "-exp", "T5")
	if msg, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(msg), "cannot run on loaded datasets") {
		t.Fatalf("pipeeval -data -exp T5 should refuse: err=%v\n%s", err, msg)
	}
}

// pipeserveProc is one spawned pipeserve binary: its base URL, the
// running cmd, and the stderr log accumulated so far (appended by a
// background reader; read it only after Wait).
type pipeserveProc struct {
	cmd  *exec.Cmd
	base string

	mu  sync.Mutex
	log bytes.Buffer
}

func (p *pipeserveProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// startPipeserve launches the binary with the given extra flags on an
// ephemeral port, scrapes the bound address from the startup log, and
// keeps collecting stderr in the background.
func startPipeserve(t *testing.T, bin string, extra ...string) *pipeserveProc {
	t.Helper()
	return startPipeserveEnv(t, bin, nil, extra...)
}

// startPipeserveEnv is startPipeserve with extra environment variables
// (the crash-injection hook for the kill-mid-ingest e2e).
func startPipeserveEnv(t *testing.T, bin string, env []string, extra ...string) *pipeserveProc {
	t.Helper()
	args := append([]string{"-region", "A", "-seed", "5", "-scale", "0.04", "-addr", "127.0.0.1:0"}, extra...)
	p := &pipeserveProc{cmd: exec.Command(bin, args...)}
	if len(env) > 0 {
		p.cmd.Env = append(os.Environ(), env...)
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		p.mu.Lock()
		p.log.WriteString(line + "\n")
		p.mu.Unlock()
		if i := strings.Index(line, "listening on "); i >= 0 {
			p.base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if p.base == "" {
		t.Fatalf("pipeserve never reported its address; startup log:\n%s", p.stderr())
	}
	go func() {
		for sc.Scan() {
			p.mu.Lock()
			p.log.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
		}
	}()
	return p
}

// waitExit waits for the process to exit (bounded) and returns its exit
// code.
func (p *pipeserveProc) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		t.Fatalf("pipeserve did not exit within %s; stderr:\n%s", timeout, p.stderr())
	}
	return -1
}

// serveRequest performs one HTTP call against the spawned pipeserve
// binary and returns status code and body.
func serveRequest(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeEndToEnd builds and launches the pipeserve binary on an
// ephemeral port, drives the train → ranking → plan workflow over real
// HTTP, and asserts GET /metrics reports the traffic it just served:
// request latency histograms per route, train singleflight counters, and
// the per-model fit-duration histogram.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e skipped in -short mode")
	}
	bins := buildCmds(t)

	cmd := exec.Command(bins["pipeserve"],
		"-region", "A", "-seed", "5", "-scale", "0.04", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The server logs "listening on HOST:PORT" once the ephemeral port
	// is bound; scrape it to find the base URL.
	var base string
	var startup []string
	sc := bufio.NewScanner(stderr)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		startup = append(startup, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		t.Fatalf("pipeserve never reported its address; startup log:\n%s",
			strings.Join(startup, "\n"))
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	// Happy path: train, rank, plan.
	status, body := serveRequest(t, "POST", base+"/api/models/Logistic/train", "")
	if status != http.StatusOK || !bytes.Contains(body, []byte("auc")) {
		t.Fatalf("train: status %d body %s", status, body)
	}
	status, body = serveRequest(t, "GET", base+"/api/models/Logistic/ranking?top=5", "")
	if status != http.StatusOK || !bytes.Contains(body, []byte("pipe_id")) {
		t.Fatalf("ranking: status %d body %s", status, body)
	}

	// Snapshot contract: repeated rankings replay
	// byte-identical bodies with a strong ETag and explicit
	// Content-Length, and a conditional request short-circuits to 304.
	resp1, err := http.Get(base + "/api/models/Logistic/ranking?top=5")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	if !bytes.Equal(replay, body) {
		t.Fatalf("ranking replay differs:\n%s\nvs\n%s", replay, body)
	}
	etag := resp1.Header.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ranking ETag missing/unquoted: %q", etag)
	}
	if cl := resp1.Header.Get("Content-Length"); cl != fmt.Sprint(len(replay)) {
		t.Fatalf("ranking Content-Length %q for %d bytes", cl, len(replay))
	}
	condReq, err := http.NewRequest("GET", base+"/api/models/Logistic/ranking?top=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	condReq.Header.Set("If-None-Match", etag)
	condResp, err := http.DefaultClient.Do(condReq)
	if err != nil {
		t.Fatal(err)
	}
	condBody, _ := io.ReadAll(condResp.Body)
	condResp.Body.Close()
	if condResp.StatusCode != http.StatusNotModified || len(condBody) != 0 {
		t.Fatalf("conditional ranking: status %d, %d-byte body (want 304, empty)",
			condResp.StatusCode, len(condBody))
	}

	// A top far beyond the pipe count must clamp to the full ranking —
	// not error, not over-return, not duplicate (pins the ranking's top
	// clamp end to end through the serve layer).
	status, body = serveRequest(t, "GET", base+"/api/network", "")
	if status != http.StatusOK {
		t.Fatalf("network: status %d body %s", status, body)
	}
	var netInfo struct {
		Pipes int `json:"pipes"`
	}
	if err := json.Unmarshal(body, &netInfo); err != nil || netInfo.Pipes < 1 {
		t.Fatalf("network: bad body %s (err %v)", body, err)
	}
	status, body = serveRequest(t, "GET", base+"/api/models/Logistic/ranking?top=1000000", "")
	if status != http.StatusOK {
		t.Fatalf("oversized top: status %d body %s", status, body)
	}
	var ranked []struct {
		Rank   int    `json:"rank"`
		PipeID string `json:"pipe_id"`
	}
	if err := json.Unmarshal(body, &ranked); err != nil {
		t.Fatalf("oversized top: invalid JSON: %v\n%s", err, body)
	}
	if len(ranked) == 0 || len(ranked) > netInfo.Pipes {
		t.Fatalf("oversized top returned %d rows for a %d-pipe network", len(ranked), netInfo.Pipes)
	}
	seen := make(map[string]bool, len(ranked))
	for i, rp := range ranked {
		if rp.Rank != i+1 {
			t.Fatalf("rank %d at position %d", rp.Rank, i)
		}
		if seen[rp.PipeID] {
			t.Fatalf("duplicate pipe %s in clamped ranking", rp.PipeID)
		}
		seen[rp.PipeID] = true
	}
	status, body = serveRequest(t, "POST", base+"/api/plan",
		`{"model":"Logistic","budget_km":3}`)
	if status != http.StatusOK || !bytes.Contains(body, []byte("total_km")) {
		t.Fatalf("plan: status %d body %s", status, body)
	}

	// Error paths surface as JSON 4xx and feed the error counters.
	status, _ = serveRequest(t, "GET", base+"/api/models/NoSuchModel/ranking", "")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown model: want 400, got %d", status)
	}
	status, _ = serveRequest(t, "POST", base+"/api/plan",
		`{"model":"Logistic","budget_km":-4}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad budget: want 400, got %d", status)
	}

	// The metrics snapshot must reflect everything above.
	status, body = serveRequest(t, "GET", base+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d body %s", status, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	for _, route := range []string{"train", "ranking", "plan"} {
		if h, ok := snap.Histograms["serve.request_seconds."+route]; !ok || h.Count < 1 {
			t.Errorf("missing request latency histogram for %s: %+v", route, snap.Histograms)
		}
		if snap.Counters["serve.requests."+route] < 1 {
			t.Errorf("missing request counter for %s: %+v", route, snap.Counters)
		}
	}
	if snap.Counters["serve.train.singleflight.misses"] < 1 {
		t.Errorf("train singleflight misses not recorded: %+v", snap.Counters)
	}
	if h, ok := snap.Histograms["core.fit_seconds.Logistic"]; !ok || h.Count < 1 {
		t.Errorf("per-model fit duration missing: %+v", snap.Histograms)
	}
	if snap.Counters["serve.errors.ranking"] < 1 || snap.Counters["serve.errors.plan"] < 1 {
		t.Errorf("error counters did not move: %+v", snap.Counters)
	}
	// Rankings are cut from the snapshot's own encoding: a stale
	// validator gets the replayed bytes under the same ETag, and no
	// response-cache series exists.
	staleReq, err := http.NewRequest("GET", base+"/api/models/Logistic/ranking?top=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	staleReq.Header.Set("If-None-Match", `"r-stale"`)
	staleResp, err := http.DefaultClient.Do(staleReq)
	if err != nil {
		t.Fatal(err)
	}
	staleBody, _ := io.ReadAll(staleResp.Body)
	staleResp.Body.Close()
	if staleResp.StatusCode != http.StatusOK || !bytes.Equal(staleBody, replay) || staleResp.Header.Get("Etag") != etag {
		t.Errorf("stale-validator ranking: status %d, ETag %q, body %.80s; want 200, %q and the replayed body",
			staleResp.StatusCode, staleResp.Header.Get("Etag"), staleBody, etag)
	}
	for name := range snap.Counters {
		if strings.Contains(name, "cache") && name != "serve.train.cached_hits" {
			t.Errorf("response-cache series %s still exported", name)
		}
	}
}

// TestServeGracefulShutdown sends SIGTERM while a cold DirectAUC-ES
// training run is in flight on a larger network and asserts the full
// resilience contract end to end: readiness flips to 503, the in-flight
// request fails fast instead of running training to completion, drain
// finishes promptly, and the process exits 0 (the ErrServerClosed path).
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	// Scale 0.5: a cold ES train takes long enough that the signal
	// reliably lands mid-train. The bounded waitExit below is the proof
	// the run was aborted rather than drained to completion.
	p := startPipeserve(t, bins["pipeserve"], "-scale", "0.5")

	if status, _ := serveRequest(t, "GET", p.base+"/readyz", ""); status != http.StatusOK {
		t.Fatalf("readyz before shutdown: %d", status)
	}

	trainDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(p.base+"/api/models/DirectAUC-ES/train", "application/json", nil)
		if err != nil {
			trainDone <- -1 // connection torn during shutdown: acceptable
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		trainDone <- resp.StatusCode
	}()
	time.Sleep(300 * time.Millisecond) // let the POST reach the trainer

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("graceful shutdown exit code %d, want 0; stderr:\n%s", code, p.stderr())
	}
	select {
	case status := <-trainDone:
		if status == http.StatusOK {
			t.Fatal("in-flight training ran to completion despite SIGTERM")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight train request never resolved")
	}
	logTail := p.stderr()
	for _, want := range []string{"draining", "shutdown: complete"} {
		if !strings.Contains(logTail, want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, logTail)
		}
	}
}

// TestServeWarmRestart trains a persistable model under -state-dir,
// restarts the process, and asserts the second instance serves the
// model as already trained with a byte-identical ranking ETag — no
// retraining on boot.
func TestServeWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	stateDir := filepath.Join(t.TempDir(), "state")

	p1 := startPipeserve(t, bins["pipeserve"], "-state-dir", stateDir)
	status, _ := serveRequest(t, "POST", p1.base+"/api/models/DirectAUC-ES/train", "")
	if status != http.StatusOK {
		t.Fatalf("train: status %d", status)
	}
	resp, err := http.Get(p1.base + "/api/models/DirectAUC-ES/ranking?top=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag1 := resp.Header.Get("Etag")
	if etag1 == "" {
		t.Fatal("first instance served no ranking ETag")
	}
	if _, err := os.Stat(filepath.Join(stateDir, "DirectAUC-ES.model.json")); err != nil {
		t.Fatalf("state file not persisted: %v", err)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p1.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("first instance exit code %d; stderr:\n%s", code, p1.stderr())
	}

	// Restart over the same state dir: the model must already be
	// trained, with the identical ranking ETag, and the log must show a
	// restore rather than a training run.
	p2 := startPipeserve(t, bins["pipeserve"], "-state-dir", stateDir)
	status, body := serveRequest(t, "GET", p2.base+"/api/models", "")
	if status != http.StatusOK {
		t.Fatalf("models: status %d", status)
	}
	var models []struct {
		Name    string `json:"name"`
		Trained bool   `json:"trained"`
	}
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range models {
		if m.Name == "DirectAUC-ES" && m.Trained {
			found = true
		}
	}
	if !found {
		t.Fatalf("warm restart did not restore DirectAUC-ES: %s", body)
	}
	resp2, err := http.Get(p2.base + "/api/models/DirectAUC-ES/ranking?top=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if etag2 := resp2.Header.Get("Etag"); etag2 != etag1 {
		t.Fatalf("warm-restart ranking ETag %q != original %q", etag2, etag1)
	}
	if logs := p2.stderr(); !strings.Contains(logs, "restored DirectAUC-ES") {
		t.Fatalf("second instance log shows no restore:\n%s", logs)
	}
}

// TestServeMetricsDisabled verifies -metrics=false hides the endpoint.
func TestServeMetricsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	cmd := exec.Command(bins["pipeserve"],
		"-region", "A", "-seed", "5", "-scale", "0.04",
		"-addr", "127.0.0.1:0", "-metrics=false")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			base = "http://" + strings.TrimSpace(sc.Text()[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		t.Fatal("pipeserve never reported its address")
	}
	go io.Copy(io.Discard, stderr)
	status, _ := serveRequest(t, "GET", base+"/metrics", "")
	if status != http.StatusNotFound {
		t.Fatalf("-metrics=false: want 404 from /metrics, got %d", status)
	}
	if status, _ = serveRequest(t, "GET", base+"/healthz", ""); status != http.StatusOK {
		t.Fatalf("healthz should stay up without metrics, got %d", status)
	}
}

// TestServeMultiRegionEndToEnd drives the sharded registry through the
// real binary: two pipegen datasets served as region shards, the admin
// view, region-scoped routing, and a streamed bulk request whose line
// payloads must match the single-region responses byte for byte.
func TestServeMultiRegionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	bins := buildCmds(t)
	dirA := filepath.Join(t.TempDir(), "regionA")
	dirB := filepath.Join(t.TempDir(), "regionB")
	runCmd(t, bins["pipegen"], "-region", "A", "-seed", "3", "-scale", "0.04", "-out", dirA)
	runCmd(t, bins["pipegen"], "-region", "B", "-seed", "4", "-scale", "0.04", "-out", dirB)

	p := startPipeserve(t, bins["pipeserve"], "-data", dirA, "-data", dirB)

	code, body := serveRequest(t, "GET", p.base+"/api/regions", "")
	if code != 200 {
		t.Fatalf("regions: %d: %s", code, body)
	}
	var regions []struct {
		Region string `json:"region"`
		Pipes  int    `json:"pipes"`
	}
	if err := json.Unmarshal(body, &regions); err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 || regions[0].Region != "A" || regions[1].Region != "B" {
		t.Fatalf("regions %+v, want A then B", regions)
	}

	code, body = serveRequest(t, "GET", p.base+"/api/network?region=B", "")
	if code != 200 || !strings.Contains(string(body), `"region":"B"`) {
		t.Fatalf("network?region=B: %d: %s", code, body)
	}

	// Bulk rank over real HTTP: NDJSON framing, request-order lines,
	// payloads byte-identical to the standalone endpoint per region.
	req, err := http.NewRequest("POST", p.base+"/api/bulk/rank",
		strings.NewReader(`{"model":"Heuristic-Age","top":5,"regions":["B","A"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("bulk rank: %d %v: %s", resp.StatusCode, err, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("bulk Content-Type %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("bulk lines %d: %s", len(lines), raw)
	}
	for i, wantRegion := range []string{"B", "A"} {
		var line struct {
			Region  string          `json:"region"`
			Ranking json.RawMessage `json:"ranking"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("bad bulk line %q: %v", lines[i], err)
		}
		if line.Region != wantRegion || line.Error != "" {
			t.Fatalf("line %d: %+v, want clean region %s", i, line, wantRegion)
		}
		code, single := serveRequest(t, "GET",
			p.base+"/api/models/Heuristic-Age/ranking?top=5&region="+wantRegion, "")
		if code != 200 {
			t.Fatalf("single ranking %s: %d", wantRegion, code)
		}
		if want := strings.TrimSuffix(string(single), "\n"); string(line.Ranking) != want {
			t.Fatalf("region %s: bulk payload diverges\nbulk:   %s\nsingle: %s",
				wantRegion, line.Ranking, want)
		}
	}

	p.cmd.Process.Signal(os.Interrupt)
	if code := p.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, p.stderr())
	}
}

// TestServeDuplicateRegionFailsFast: serving the same dataset twice
// must be a startup error, not a silently merged registry.
func TestServeDuplicateRegionFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	bins := buildCmds(t)
	dir := filepath.Join(t.TempDir(), "regionA")
	runCmd(t, bins["pipegen"], "-region", "A", "-seed", "3", "-scale", "0.04", "-out", dir)

	cmd := exec.Command(bins["pipeserve"], "-data", dir, "-data", dir, "-addr", "127.0.0.1:0")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err == nil || !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("duplicate -data inputs: err %v (output %s), want exit 1", err, out)
	}
	if !strings.Contains(string(out), `duplicate region "A"`) {
		t.Fatalf("startup log %s missing the duplicate-region error", out)
	}
}

// TestServeIngestSIGKILLRestart is the cross-process durability e2e:
// ingest acknowledged events over real HTTP, SIGKILL the process (once
// externally, once from inside the WAL append path via the PIPEWAL_CRASH
// trigger), restart on the same -wal-dir, and assert every acknowledged
// event survives exactly once — replayed on boot, deduplicated on retry.
func TestServeIngestSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("serve e2e skipped in -short mode")
	}
	bins := buildCmds(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	p1 := startPipeserve(t, bins["pipeserve"], "-wal-dir", walDir, "-wal-sync", "always")

	// Scrape a few real pipe IDs and the observation window end so the
	// events validate.
	status, body := serveRequest(t, "POST", p1.base+"/api/models/Heuristic-Age/train", "")
	if status != http.StatusOK {
		t.Fatalf("train: status %d body %s", status, body)
	}
	status, body = serveRequest(t, "GET", p1.base+"/api/models/Heuristic-Age/ranking?top=8", "")
	if status != http.StatusOK {
		t.Fatalf("ranking: status %d", status)
	}
	var ranked []struct {
		PipeID string `json:"pipe_id"`
	}
	if err := json.Unmarshal(body, &ranked); err != nil || len(ranked) < 4 {
		t.Fatalf("ranking body %s (err %v)", body, err)
	}
	status, body = serveRequest(t, "GET", p1.base+"/api/network", "")
	if status != http.StatusOK {
		t.Fatalf("network: status %d", status)
	}
	var netInfo struct {
		TestYear int `json:"test_year"`
	}
	if err := json.Unmarshal(body, &netInfo); err != nil || netInfo.TestYear == 0 {
		t.Fatalf("network body %s (err %v)", body, err)
	}
	event := func(i int) string {
		return fmt.Sprintf(`{"id":"kill-%d","pipe_id":%q,"year":%d,"day":%d}`,
			i, ranked[i%len(ranked)].PipeID, netInfo.TestYear+1, i+1)
	}

	const acked = 6
	for i := 0; i < acked; i++ {
		status, body = serveRequest(t, "POST", p1.base+"/api/events", event(i))
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"accepted":1`)) {
			t.Fatalf("event %d: status %d body %s", i, status, body)
		}
	}

	// SIGKILL: no drain, no WAL close — only fsynced bytes survive, and
	// -wal-sync=always promised all six were.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()

	p2 := startPipeserve(t, bins["pipeserve"], "-wal-dir", walDir, "-wal-sync", "always")
	if logs := p2.stderr(); !strings.Contains(logs, fmt.Sprintf("replayed %d live events", acked)) {
		t.Fatalf("restart log shows no replay of %d events:\n%s", acked, logs)
	}
	var netAfter struct {
		LiveEvents int `json:"live_events"`
	}
	status, body = serveRequest(t, "GET", p2.base+"/api/network", "")
	if status != http.StatusOK || json.Unmarshal(body, &netAfter) != nil || netAfter.LiveEvents != acked {
		t.Fatalf("after restart: status %d live_events %d (want %d) body %s",
			status, netAfter.LiveEvents, acked, body)
	}
	// Retries of every acknowledged event are pure duplicates.
	for i := 0; i < acked; i++ {
		status, body = serveRequest(t, "POST", p2.base+"/api/events", event(i))
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"accepted":0,"duplicates":1`)) {
			t.Fatalf("retry %d: status %d body %s", i, status, body)
		}
	}

	// Part two: die from INSIDE the append path (the PIPEWAL_CRASH
	// trigger exits like SIGKILL mid-write) on the next ingest. The dying
	// request is never acknowledged, so the client retries it against the
	// restarted process.
	if err := p2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p2.cmd.Wait()
	p3 := startPipeserveEnv(t, bins["pipeserve"],
		[]string{"PIPEWAL_CRASH=append.framed:1"},
		"-wal-dir", walDir, "-wal-sync", "always")
	resp, err := http.Post(p3.base+"/api/events", "application/json", strings.NewReader(event(acked)))
	if err == nil {
		// The process must be dying; whatever status came back, it cannot
		// be an ack.
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("crashing process acknowledged the event: %s", b)
		}
	}
	if code := p3.waitExit(t, 10*time.Second); code != 137 {
		t.Fatalf("crash trigger exit code %d, want 137", code)
	}

	p4 := startPipeserve(t, bins["pipeserve"], "-wal-dir", walDir, "-wal-sync", "always")
	status, body = serveRequest(t, "GET", p4.base+"/api/network", "")
	var netFinal struct {
		LiveEvents int `json:"live_events"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &netFinal) != nil || netFinal.LiveEvents != acked {
		t.Fatalf("after mid-append crash: live_events %d, want %d (unacked event must not replay as applied twice); body %s",
			netFinal.LiveEvents, acked, body)
	}
	// The unacknowledged event retries cleanly: exactly-once overall.
	status, body = serveRequest(t, "POST", p4.base+"/api/events", event(acked))
	if status != http.StatusOK || !bytes.Contains(body, []byte(fmt.Sprintf(`"live_events":%d`, acked+1))) {
		t.Fatalf("retry of unacked event: status %d body %s", status, body)
	}
}
